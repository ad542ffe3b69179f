#include "graph/hybrid_store.h"

#include <algorithm>

#include "common/telemetry.h"

namespace igs::graph {

namespace {

/** core.graph.tier_* telemetry, resolved on first HybridStore use.  Lazy
 *  on purpose: runs that never construct a HybridStore must not add these
 *  metrics to the registry snapshot, or every existing golden run would
 *  grow "only in candidate" keys (same pattern as PipelineTelemetry). */
struct HybridTelemetry {
    telemetry::Counter& promotions_to_sorted;
    telemetry::Counter& promotions_to_hash;
    telemetry::Histogram* probes[3];
    telemetry::Gauge* tier_vertices[3];

    static HybridTelemetry&
    get()
    {
        // Probe-count decades: tier 0/1 land in the low buckets (inline
        // scan / binary search), a linear hub scan would fill the tail.
        static const double kProbeBounds[] = {0.0,  1.0,  2.0,  4.0, 8.0,
                                              16.0, 32.0, 64.0, 128.0};
        auto& r = telemetry::Registry::global();
        static HybridTelemetry t{
            r.counter("core.graph.tier_promotions_to_sorted"),
            r.counter("core.graph.tier_promotions_to_hash"),
            {&r.histogram("core.graph.tier0_probes", kProbeBounds),
             &r.histogram("core.graph.tier1_probes", kProbeBounds),
             &r.histogram("core.graph.tier2_probes", kProbeBounds)},
            {&r.gauge("core.graph.tier0_vertices"),
             &r.gauge("core.graph.tier1_vertices"),
             &r.gauge("core.graph.tier2_vertices")},
        };
        return t;
    }
};

} // namespace

// ---------------------------------------------------------------- edge set

ApplyResult
HybridEdgeSet::insert(Neighbor nbr, const StoreTuning& tuning)
{
    auto& t = HybridTelemetry::get();
    const std::uint8_t tier_before = tier_;
    const ApplyResult r = place(nbr, tuning.hybrid_sorted_threshold);
    t.probes[tier_before]->record(r.probes);
    if (tier_ != tier_before) {
        if (tier_before == kInline) {
            t.promotions_to_sorted.inc();
        }
        if (tier_ == kHashed) {
            t.promotions_to_hash.inc();
        }
    }
    return r;
}

ApplyResult
HybridEdgeSet::remove(VertexId nbr_id)
{
    const std::uint8_t tier_now = tier_;
    const ApplyResult r = erase(nbr_id);
    HybridTelemetry::get().probes[tier_now]->record(r.probes);
    return r;
}

ApplyResult
HybridEdgeSet::place(Neighbor nbr, std::uint32_t sorted_threshold)
{
    if (tier_ == kHashed) {
        return hash_insert(nbr);
    }

    ApplyResult r;
    r.len_before = count_;

    if (tier_ == kInline) {
        for (std::uint32_t i = 0; i < count_; ++i) {
            ++r.probes;
            if (inline_[i].id == nbr.id) {
                inline_[i].weight += nbr.weight;
                r.found = true;
                return r;
            }
        }
        if (count_ < kInlineCapacity) {
            inline_[count_++] = nbr;
            return r;
        }
        // Inline record full: promote, then place the (known-absent)
        // newcomer through the sorted path below.
        promote_to_sorted();
    }

    // Tier 1: binary-search duplicate check over the sorted array.
    std::uint32_t lo = 0;
    std::uint32_t hi = count_;
    while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        ++r.probes;
        if (heap_[mid].id < nbr.id) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if (lo < count_) {
        ++r.probes;
        if (heap_[lo].id == nbr.id) {
            heap_[lo].weight += nbr.weight;
            r.found = true;
            return r;
        }
    }
    // igs-lint: allow(hot-path-alloc) -- amortized sorted-array growth
    heap_.insert(heap_.begin() + lo, nbr);
    ++count_;
    if (count_ >= sorted_threshold) {
        promote_to_hash();
    }
    return r;
}

ApplyResult
HybridEdgeSet::hash_insert(Neighbor nbr)
{
    ApplyResult r;
    r.len_before = count_;
    index_.reserve_one(heap_);
    const PositionIndex::Lookup hit = index_.find(heap_, nbr.id);
    r.probes = hit.probes;
    if (hit.found) {
        heap_[hit.pos].weight += nbr.weight;
        r.found = true;
        return r;
    }
    // The miss also examined the empty slot the append fills.
    ++r.probes;
    // igs-lint: allow(hot-path-alloc) -- amortized dense-array growth
    index_.append(heap_, hit, nbr);
    ++count_;
    return r;
}

ApplyResult
HybridEdgeSet::erase(VertexId nbr_id)
{
    if (tier_ == kHashed) {
        return hash_remove(nbr_id);
    }

    ApplyResult r;
    r.len_before = count_;

    if (tier_ == kInline) {
        for (std::uint32_t i = 0; i < count_; ++i) {
            ++r.probes;
            if (inline_[i].id == nbr_id) {
                inline_[i] = inline_[count_ - 1];
                --count_;
                r.found = true;
                return r;
            }
        }
        return r;
    }

    // Tier 1: binary search, then an order-preserving erase (the array
    // must stay sorted for future duplicate checks).
    std::uint32_t lo = 0;
    std::uint32_t hi = count_;
    while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        ++r.probes;
        if (heap_[mid].id < nbr_id) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if (lo < count_) {
        ++r.probes;
        if (heap_[lo].id == nbr_id) {
            heap_.erase(heap_.begin() + lo);
            --count_;
            r.found = true;
        }
    }
    return r;
}

ApplyResult
HybridEdgeSet::hash_remove(VertexId nbr_id)
{
    ApplyResult r;
    r.len_before = count_;
    const PositionIndex::Lookup hit = index_.find(heap_, nbr_id);
    r.probes = hit.probes;
    if (hit.found) {
        index_.swap_remove(heap_, hit);
        --count_;
        r.found = true;
    }
    return r;
}

void
HybridEdgeSet::promote_to_sorted()
{
    heap_.assign(inline_, inline_ + count_);
    std::sort(heap_.begin(), heap_.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.id < b.id; });
    tier_ = kSorted;
}

void
HybridEdgeSet::promote_to_hash()
{
    index_.build(heap_);
    tier_ = kHashed;
}

// ------------------------------------------------------------------- store

HybridStore::HybridStore(std::size_t num_vertices, const StoreTuning& tuning)
    : BasicStore(num_vertices, tuning)
{
    // Resolve the tier telemetry at construction so every run that
    // touches a HybridStore exports the same registry keys, whether or
    // not any vertex ever promoted.
    HybridTelemetry::get();
}

HybridStore::TierCensus
HybridStore::tier_census() const
{
    TierCensus c;
    for (const HybridEdgeSet& set : out_) {
        ++c.vertices[set.tier()];
    }
    return c;
}

void
HybridStore::publish_tier_telemetry() const
{
    const TierCensus c = tier_census();
    auto& t = HybridTelemetry::get();
    for (int i = 0; i < 3; ++i) {
        t.tier_vertices[i]->set(static_cast<double>(c.vertices[i]));
    }
}

} // namespace igs::graph
