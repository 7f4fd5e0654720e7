#ifndef METRICPROX_BOUNDS_TRI_H_
#define METRICPROX_BOUNDS_TRI_H_

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "check/certificate.h"
#include "core/bounder.h"
#include "core/simd.h"
#include "core/types.h"
#include "graph/partial_graph.h"

namespace metricprox {

/// The paper's Tri Scheme (Algorithm 2): bounds from triangles only.
///
/// For an unknown pair (i, j), every common resolved neighbor c forms a
/// triangle whose two known sides constrain the missing one:
///     lb = max_c |dist(i,c) - dist(j,c)|
///     ub = min_c (dist(i,c) + dist(j,c))
/// Computed by a linear merge over the two sorted adjacency lists, i.e.
/// O(deg(i) + deg(j)); expected O(m/n) per lookup (Theorem 4.2). Updates
/// are the graph insertion itself, so OnEdgeResolved is a no-op here.
///
/// Bounds are looser than SPLUB's (paths longer than 2 are ignored) but the
/// scheme is the paper's recommended practical plug-in for large inputs.
///
/// A whole row (q, targets) is bounded in one pass by BoundsFrom, with one
/// of two strategies from core/simd.h, bit-identical to each other and to
/// the per-pair merge; both write row[v], indexed by object id:
///  * scatter walks every neighbor c of q and c's column once, reducing
///    each triangle into per-object accumulators — Σ_{c ∈ N(q)} deg c
///    entries however many targets there are;
///  * gather expands q's column into a dense row and walks each target's
///    column against it — Σ_v deg v entries.
/// Each call takes the one with fewer entries, counted from Degree(); the
/// count over the targets stops once it reaches the scatter side, which
/// picks the same strategy as counting them all. A sparse graph bounded
/// against every object (kNN candidate ordering) scatters, a dense graph
/// bounded against a few unresolved targets (a PAM swap candidate's row)
/// gathers. There is no option to pin either. DecideBatch routes a batch
/// whose pairs all share one endpoint (Prim's key update) through
/// BoundsFrom; any other batch takes the per-pair loop.
///
/// The paper's Characteristic 1 admits *relaxed* triangle inequalities:
///     dist(i, j) <= rho * (dist(i, c) + dist(c, j)),  rho >= 1
/// (squared Euclidean distance is such a semimetric with rho = 2). Because
/// Tri only ever uses paths of length two, the relaxation enters each bound
/// exactly once:
///     ub = rho * (d(i,c) + d(j,c))
///     lb = max(d(i,c)/rho - d(j,c),  d(j,c)/rho - d(i,c))
/// so a TriBounder constructed with the space's rho stays valid — and the
/// framework's exactness guarantee carries over unchanged. (SPLUB/ADM/DFT
/// compose the inequality along longer paths and require rho = 1.)
class TriBounder : public Bounder {
 public:
  explicit TriBounder(const PartialDistanceGraph* graph, double rho = 1.0)
      : graph_(graph), rho_(rho) {
    CHECK(graph != nullptr);
    CHECK_GE(rho, 1.0) << "relaxation factor must be >= 1";
  }

  std::string_view name() const override { return "tri"; }

  /// Merge-intersects the two SoA adjacency columns and reduces the matched
  /// triangles through the dispatched tri-reduce kernel (bit-identical to
  /// the historical lambda walk on every tier; see core/simd.h). The merge
  /// scratch is a member — per bounder instance, not per thread — so
  /// concurrent sessions each driving their own TriBounder never share
  /// mutable state through the bound path; one TriBounder instance must not
  /// be driven from two threads at once (same contract as the resolver that
  /// owns it).
  Interval Bounds(ObjectId i, ObjectId j) override {
    const PartialDistanceGraph::AdjacencyColumns a = graph_->AdjacencyView(i);
    const PartialDistanceGraph::AdjacencyColumns b = graph_->AdjacencyView(j);
    return simd::TriMergeBounds(a.ids.data(), a.distances.data(),
                                a.ids.size(), b.ids.data(),
                                b.distances.data(), b.ids.size(), rho_,
                                &scratch_);
  }

  /// One pass over the row (q, targets): scatter or gather, whichever walks
  /// fewer column entries (see the class comment).
  void BoundsFrom(ObjectId q, std::span<const ObjectId> targets,
                  std::span<Interval> row) override {
    const simd::TriColumn source = Column(q);
    size_t scatter_cost = 0;
    for (size_t x = 0; x < source.size; ++x) {
      scatter_cost += graph_->Degree(source.ids[x]);
    }
    size_t gather_cost = 0;
    for (const ObjectId v : targets) {
      if (gather_cost >= scatter_cost) break;
      gather_cost += graph_->Degree(v);
    }
    columns_.clear();
    if (scatter_cost <= gather_cost) {
      for (size_t x = 0; x < source.size; ++x) {
        columns_.push_back(Column(source.ids[x]));
      }
      simd::TriScatterBounds(source, columns_, targets, rho_,
                             graph_->num_objects(), &scratch_, row);
    } else {
      for (const ObjectId v : targets) columns_.push_back(Column(v));
      simd::TriGatherBounds(source, columns_, targets, rho_,
                            graph_->num_objects(), &scratch_, row);
    }
  }

  /// A batch whose pairs all share one endpoint is one BoundsFrom row plus
  /// the base DecideLessThan rule per pair, read by the other endpoint
  /// (Tri's interval is symmetric in its two endpoints, so the shared one
  /// may sit on either side); any other batch takes the base per-pair
  /// loop.
  void DecideBatch(std::span<const IdPair> pairs,
                   std::span<const double> thresholds,
                   std::span<std::optional<bool>> out) override {
    const ObjectId shared = SharedEndpoint(pairs);
    if (shared == kInvalidObject) {
      Bounder::DecideBatch(pairs, thresholds, out);
      return;
    }
    others_.resize(pairs.size());
    for (size_t k = 0; k < pairs.size(); ++k) {
      others_[k] = pairs[k].i == shared ? pairs[k].j : pairs[k].i;
    }
    row_.resize(graph_->num_objects());
    BoundsFrom(shared, others_, row_);
    for (size_t k = 0; k < pairs.size(); ++k) {
      out[k] = DecideLessThanFrom(row_[others_[k]], thresholds[k]);
    }
  }

  void OnEdgeResolved(ObjectId, ObjectId, double) override {}

  /// Same merge as Bounds() with argbest tracking: the interval is
  /// reproduced bit-for-bit, and the best triangle becomes the witness —
  /// the 2-edge path i-c-j for the upper bound, the better-oriented wrap of
  /// one triangle side for the lower bound.
  bool CertifyBounds(ObjectId i, ObjectId j,
                     BoundCertificate* cert) override {
    double lb = 0.0;
    double ub = kInfDistance;
    ObjectId ub_c = kInvalidObject;
    ObjectId lb_c = kInvalidObject;
    bool lb_is_ij = true;
    const double inv_rho = 1.0 / rho_;
    graph_->ForEachCommonNeighbor(
        i, j, [&](ObjectId c, double di, double dj) {
          const double gap_ij = di * inv_rho - dj;
          const double gap_ji = dj * inv_rho - di;
          const double gap = gap_ij > gap_ji ? gap_ij : gap_ji;
          if (gap > lb) {
            lb = gap;
            lb_c = c;
            lb_is_ij = gap_ij > gap_ji;
          }
          const double sum = rho_ * (di + dj);
          if (sum < ub) {
            ub = sum;
            ub_c = c;
          }
        });
    if (lb > ub) lb = ub;
    cert->kind = BoundCertificate::Kind::kInterval;
    cert->lb = lb;
    cert->ub = ub;
    cert->has_upper = ub_c != kInvalidObject;
    if (cert->has_upper) {
      cert->upper.nodes = {i, ub_c, j};
      cert->upper.rho = rho_;
    }
    cert->has_lower = lb_c != kInvalidObject;
    if (cert->has_lower) {
      cert->lower.rho = rho_;
      if (lb_is_ij) {
        // gap_ij = d(i,c)/rho - d(j,c): wrap the edge (i, c).
        cert->lower.u = i;
        cert->lower.v = lb_c;
        cert->lower.path_iu = {i};
        cert->lower.path_vj = {lb_c, j};
      } else {
        // gap_ji = d(c,j)/rho - d(i,c): wrap the edge (c, j).
        cert->lower.u = lb_c;
        cert->lower.v = j;
        cert->lower.path_iu = {i, lb_c};
        cert->lower.path_vj = {j};
      }
    }
    return true;
  }

  double rho() const { return rho_; }

 private:
  simd::TriColumn Column(ObjectId i) const {
    const PartialDistanceGraph::AdjacencyColumns c = graph_->AdjacencyView(i);
    return simd::TriColumn{c.ids.data(), c.distances.data(), c.ids.size()};
  }

  /// The endpoint every pair contains, or kInvalidObject if there is none
  /// (or the batch is empty). Only the first pair's endpoints can qualify.
  static ObjectId SharedEndpoint(std::span<const IdPair> pairs) {
    if (pairs.empty()) return kInvalidObject;
    const auto shared_by_all = [pairs](ObjectId s) {
      for (const IdPair& p : pairs) {
        if (p.i != s && p.j != s) return false;
      }
      return true;
    };
    if (shared_by_all(pairs[0].i)) return pairs[0].i;
    if (shared_by_all(pairs[0].j)) return pairs[0].j;
    return kInvalidObject;
  }

  const PartialDistanceGraph* graph_;  // not owned
  double rho_;
  // Per-instance scratch (see Bounds()): kernel buffers, the column views a
  // BoundsFrom call walks, and DecideBatch's row.
  simd::TriScratch scratch_;
  std::vector<simd::TriColumn> columns_;
  std::vector<ObjectId> others_;
  std::vector<Interval> row_;
};

}  // namespace metricprox

#endif  // METRICPROX_BOUNDS_TRI_H_
