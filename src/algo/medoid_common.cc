#include "algo/medoid_common.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>

#include "core/logging.h"

namespace metricprox {
namespace medoid_internal {

bool IsMedoid(const std::vector<ObjectId>& medoids, ObjectId object) {
  return std::find(medoids.begin(), medoids.end(), object) != medoids.end();
}

namespace {

constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

// Folds d = d(j, medoids[m]) into j's entries, keeping (nearest, dn) and
// (second, ds) the two least of j's medoids under (distance, medoid id);
// an empty entry (kNoSlot) comes after every medoid.
void Fold(const std::vector<ObjectId>& medoids, ObjectId j, uint32_t m,
          double d, AssignmentTable* table) {
  const auto precedes = [&](double other_d, uint32_t other) {
    return d < other_d ||
           (d == other_d && (other == kNoSlot || medoids[m] < medoids[other]));
  };
  if (precedes(table->dist_nearest[j], table->nearest[j])) {
    table->second[j] = table->nearest[j];
    table->dist_second[j] = table->dist_nearest[j];
    table->nearest[j] = m;
    table->dist_nearest[j] = d;
  } else if (precedes(table->dist_second[j], table->second[j])) {
    table->second[j] = m;
    table->dist_second[j] = d;
  }
}

// The medoid slots each open object still has to rule on, and the rounds
// that rule on them. An object asks its slots in order, pending[next, end).
class TopTwoRounds {
 public:
  TopTwoRounds(BoundedResolver* resolver, const std::vector<ObjectId>& medoids,
               AssignmentTable* table)
      : resolver_(resolver),
        medoids_(medoids),
        table_(table),
        row_(resolver->num_objects()) {}

  // Assigns j from scratch: folds in its cached medoid distances and queues
  // the other slots by the lo of one row (j, ·), ties to the smaller slot.
  void Restart(ObjectId j) {
    table_->nearest[j] = table_->second[j] = kNoSlot;
    table_->dist_nearest[j] = table_->dist_second[j] = kInfDistance;
    const size_t begin = pending_.size();
    targets_.clear();
    for (uint32_t slot = 0; slot < medoids_.size(); ++slot) {
      const ObjectId m = medoids_[slot];
      if (resolver_->Known(j, m)) {
        Fold(medoids_, j, slot, resolver_->Distance(j, m), table_);
      } else {
        targets_.push_back(m);
        pending_.push_back({0.0, slot});
      }
    }
    if (targets_.empty()) return;
    resolver_->BoundsFrom(j, targets_, row_);
    for (size_t p = begin; p < pending_.size(); ++p) {
      pending_[p].lo = row_[medoids_[pending_[p].slot]].lo;
    }
    std::sort(pending_.begin() + begin, pending_.end(),
              [](const Pending& a, const Pending& b) {
                return a.lo < b.lo || (a.lo == b.lo && a.slot < b.slot);
              });
    open_.push_back({j, begin, pending_.size()});
  }

  // Queues slot `out`, the incoming medoid h, for each of `objects` that h
  // may join the top two of: one row (h, ·) skips h where its lo proves it
  // farther than the object's second-nearest.
  void QueueIncoming(std::span<const ObjectId> objects, uint32_t out) {
    const ObjectId h = medoids_[out];
    resolver_->BoundsFrom(h, objects, row_);
    for (const ObjectId j : objects) {
      const double ds = table_->dist_second[j];
      if (resolver_->Known(j, h)) {
        Fold(medoids_, j, out, resolver_->Distance(j, h), table_);
      } else if (!(row_[j].lo > ds + BoundDecisionMargin(ds))) {
        pending_.push_back({row_[j].lo, out});
        open_.push_back({j, pending_.size() - 1, pending_.size()});
      }
    }
  }

  // Runs the rounds until no object is open. Every row was bounded before
  // the first round, against the graph that round still sees, so only a
  // later round asks the scheme again.
  void Run() {
    for (bool fresh = true; !open_.empty(); fresh = false) {
      batch_.clear();
      batch_slots_.clear();
      size_t still_open = 0;
      for (Open o : open_) {
        const ObjectId j = o.object;
        while (o.next < o.end) {
          const Pending p = pending_[o.next];
          const double ds = table_->dist_second[j];
          if (p.lo > ds + BoundDecisionMargin(ds)) {
            o.next = o.end;  // the later slots' lo is no smaller
            break;
          }
          ++o.next;
          const ObjectId m = medoids_[p.slot];
          if (resolver_->Known(j, m)) {
            Fold(medoids_, j, p.slot, resolver_->Distance(j, m), table_);
            continue;
          }
          if (!fresh && ds != kInfDistance &&
              resolver_->ProvenGreaterThan(j, m, ds)) {
            continue;
          }
          batch_.push_back(IdPair{j, m});
          batch_slots_.push_back(p.slot);
          break;
        }
        if (o.next < o.end) open_[still_open++] = o;
      }
      open_.resize(still_open);
      if (batch_.empty()) continue;
      resolver_->ResolveAll(batch_);
      for (size_t b = 0; b < batch_.size(); ++b) {
        Fold(medoids_, batch_[b].i, batch_slots_[b],
             resolver_->Distance(batch_[b].i, batch_[b].j), table_);
      }
    }
  }

 private:
  struct Pending {
    double lo;
    uint32_t slot;
  };
  struct Open {
    ObjectId object;
    size_t next;
    size_t end;
  };

  BoundedResolver* const resolver_;
  const std::vector<ObjectId>& medoids_;
  AssignmentTable* const table_;
  std::vector<Interval> row_;  // indexed by object
  std::vector<ObjectId> targets_;
  std::vector<Pending> pending_;
  std::vector<Open> open_;
  std::vector<IdPair> batch_;
  std::vector<uint32_t> batch_slots_;
};

double SumNearest(const AssignmentTable& table) {
  double total = 0.0;
  for (const double d : table.dist_nearest) total += d;
  return total;
}

}  // namespace

AssignmentTable ComputeAssignment(BoundedResolver* resolver,
                                  const std::vector<ObjectId>& medoids) {
  const ObjectId n = resolver->num_objects();
  CHECK_GE(medoids.size(), 2u) << "second-nearest undefined for k < 2";
  AssignmentTable table;
  table.nearest.resize(n);
  table.second.resize(n);
  table.dist_nearest.resize(n);
  table.dist_second.resize(n);
  TopTwoRounds rounds(resolver, medoids, &table);
  for (ObjectId j = 0; j < n; ++j) rounds.Restart(j);
  rounds.Run();
  table.total_deviation = SumNearest(table);
  return table;
}

void UpdateAssignment(BoundedResolver* resolver,
                      const std::vector<ObjectId>& medoids, uint32_t out,
                      AssignmentTable* table) {
  const ObjectId n = resolver->num_objects();
  CHECK(table != nullptr);
  CHECK_EQ(table->nearest.size(), n);
  CHECK_LT(out, medoids.size());
  std::vector<ObjectId> restarted;
  std::vector<ObjectId> kept;
  for (ObjectId j = 0; j < n; ++j) {
    const bool held = table->nearest[j] == out || table->second[j] == out;
    (held ? restarted : kept).push_back(j);
  }
  // The medoid that left was third or later for a kept object, so its two
  // nearest stand unless the incoming one comes before the second.
  TopTwoRounds rounds(resolver, medoids, table);
  rounds.QueueIncoming(kept, out);
  for (const ObjectId j : restarted) rounds.Restart(j);
  rounds.Run();
  table->total_deviation = SumNearest(*table);
}

double TermLowerBound(const Interval& bounds, double cap, double base) {
  const double shaved = bounds.lo - BoundDecisionMargin(bounds.lo);
  return std::min(shaved > 0.0 ? shaved : 0.0, cap) - base;
}

double SumMargin(size_t objects, double magnitude) {
  return 4.0 * static_cast<double>(objects) *
         std::numeric_limits<double>::epsilon() * magnitude;
}

bool SwapDeltas(BoundedResolver* resolver, const AssignmentTable& table,
                ObjectId h, uint32_t out_begin, uint32_t out_end,
                double incumbent, SwapScratch* scratch,
                std::span<double> deltas) {
  CHECK(scratch != nullptr);
  CHECK_LT(out_begin, out_end);
  CHECK_LE(out_end, deltas.size());
  const ObjectId n = resolver->num_objects();
  CHECK_LT(h, n);

  // One bound pass over the row (h, ·), with h itself answered Exact(0), so
  // the targets are the same ascending list for every candidate.
  std::vector<ObjectId>& targets = scratch->targets;
  if (targets.size() != n) {
    targets.resize(n);
    std::iota(targets.begin(), targets.end(), ObjectId{0});
  }
  std::vector<Interval>& row = scratch->bounds;
  row.resize(n);
  resolver->BoundsFrom(h, targets, row);

  // Every slot's delta bounded from the row (TermLowerBound): `kept` adds
  // each object's term with cap dn, and a slot adds, for the objects it
  // serves, what the cap ds puts on top. j = h comes out as -dn(h), its
  // row entry being Exact(0). Every term of a delta and of its bound, and
  // every correction, is at most ds(j) in size.
  const auto slots = deltas.subspan(out_begin, out_end - out_begin);
  std::fill(slots.begin(), slots.end(), 0.0);
  double kept = 0.0;
  double magnitude = 0.0;
  for (ObjectId j = 0; j < n; ++j) {
    const double dn = table.dist_nearest[j];
    const double ds = table.dist_second[j];
    const double term = TermLowerBound(row[j], dn, dn);
    kept += term;
    magnitude += ds;
    const uint32_t own = table.nearest[j];
    if (own >= out_begin && own < out_end) {
      deltas[own] += TermLowerBound(row[j], ds, dn) - term;
    }
  }
  const double margin = SumMargin(n, magnitude);
  bool beaten = true;
  for (double& bound : slots) {
    bound = kept + bound - margin;
    beaten = beaten && bound > incumbent;
  }
  if (beaten) return false;

  std::fill(slots.begin(), slots.end(), 0.0);
  for (ObjectId j = 0; j < n; ++j) {
    const double dn = table.dist_nearest[j];
    if (j == h) {
      // h becomes a medoid: its old contribution disappears.
      for (double& delta : slots) delta -= dn;
      continue;
    }
    const uint32_t own = table.nearest[j];
    const bool loses = own >= out_begin && own < out_end;
    const double ds = table.dist_second[j];
    const double t = loses ? ds : dn;
    // The row was bounded before this pass resolved anything, and bounds
    // only tighten as edges land: what it proves, LessThan would too.
    const std::optional<bool> by_row = Bounder::DecideLessThanFrom(row[j], t);
    const bool moves =
        (!by_row.has_value() || *by_row) && resolver->LessThan(j, h, t);
    const double d = moves ? resolver->Distance(j, h) : 0.0;
    if (loses) {
      // j loses its medoid: it moves to h or to its old second-nearest.
      // (The outgoing medoid itself falls in this case with dn = 0.)
      deltas[own] += moves ? d - dn : ds - dn;
    }
    if (moves && d < dn) {
      // Every other slot keeps j's medoid, and h is strictly closer.
      for (uint32_t o = out_begin; o < out_end; ++o) {
        if (o != own) deltas[o] += d - dn;
      }
    }
  }
  return true;
}

}  // namespace medoid_internal
}  // namespace metricprox
