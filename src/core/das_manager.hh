/**
 * @file
 * The DAS-DRAM management mechanism (Section 5): hardware address
 * translation with a tag cache spilling into the LLC, promotion
 * filtering, fast-slot victim selection and row swapping through the
 * migration engine. Also covers the static baselines (SAS/CHARM) and
 * plain designs (standard/FS) via its mode switch, so every design in
 * Section 7 goes through one code path with different configuration.
 */

#ifndef DASDRAM_CORE_DAS_MANAGER_HH
#define DASDRAM_CORE_DAS_MANAGER_HH

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "common/zero_paged.hh"
#include "core/promotion_policy.hh"
#include "core/replacement_policy.hh"
#include "core/subarray_layout.hh"
#include "core/translation_cache.hh"
#include "core/translation_table.hh"
#include "dram/dram_system.hh"
#include "mem/request_trace.hh"

namespace dasdram
{

/** How the fast level is managed. */
enum class ManagementMode
{
    None,    ///< no remapping (standard DRAM, FS-DRAM)
    Static,  ///< profiling-based fixed mapping (SAS-DRAM, CHARM)
    Dynamic, ///< DAS-DRAM: translation + migration
};

/** Manager configuration (Table 1 defaults). */
struct DasConfig
{
    ManagementMode mode = ManagementMode::Dynamic;
    std::uint64_t translationCacheBytes = 128 * KiB;
    unsigned translationCacheAssoc = 8;
    PromotionConfig promotion{};
    FastReplPolicy replacement = FastReplPolicy::Lru;
    /** DAS-DRAM (FM): apply swaps with zero latency. */
    bool zeroMigrationLatency = false;
    /** Base address of the in-memory translation table region. */
    Addr tableBase = 7ULL * GiB + 512 * MiB;
    /** LLC hit latency charged to table walks that hit the LLC. */
    Cycle llcLatencyTicks = cpuCyclesToTicks(20);
};

/**
 * Counts of where DRAM data accesses were serviced (Figures 7c/7f/8b).
 */
struct LocationStats
{
    std::uint64_t rowBuffer = 0;
    std::uint64_t fastLevel = 0;
    std::uint64_t slowLevel = 0;

    std::uint64_t
    total() const
    {
        return rowBuffer + fastLevel + slowLevel;
    }
};

/**
 * Memory-side manager between the LLC and the DRAM system. It is the
 * DRAM system's completion sink, installed at construction: finished
 * table walks, data accesses and swaps dispatch on the data the
 * request or job carries.
 */
class DasManager : private CompletionSink
{
  public:
    /**
     * Receiver for completed-access continuations: called with the
     * token the access was issued with and the completion tick.
     * Installed once by the owning System; tokens of kind None are
     * delivered too (the hook decides they are no-ops).
     */
    using CompletionHook =
        std::function<void(const Continuation &, Cycle)>;

    /**
     * @param dram must outlive the manager; the manager installs
     *        itself as its completion sink.
     * @param caches may be null only when mode != Dynamic (table walks
     *        need the LLC).
     */
    DasManager(DramSystem &dram, CacheHierarchy *caches,
               const AsymmetricLayout &layout, const DasConfig &cfg);

    DasManager(const DasManager &) = delete;
    DasManager &operator=(const DasManager &) = delete;

    /**
     * Issue a memory access for line @p addr. When the access
     * completes, @p cont is delivered to the completion hook with the
     * completion tick (DRAM always takes time; forwarded reads may
     * complete at a near tick). Writes may pass a default-constructed
     * (None) token.
     *
     * @p span, when non-null, is the lifecycle record of a sampled
     * request: the manager stamps the translation stage onto it and
     * hands it to the MemRequest when the access is submitted to
     * DRAM. Strictly observational.
     */
    void access(Addr addr, bool is_write, int core, Continuation cont,
                Cycle now, std::unique_ptr<RequestSpan> span = {});

    /** Install the continuation receiver (see CompletionHook). */
    void setCompletionHook(CompletionHook hook)
    {
        completionHook_ = std::move(hook);
    }

    /** Retry deferred submissions; call whenever the system ticks. */
    void tick(Cycle now);

    /** Outstanding manager-side work (excludes the DRAM system). */
    bool busy() const { return !pending_.empty(); }

    /// @name Introspection
    /// @{
    TranslationTable &table() { return *table_; }
    const TranslationTable &table() const { return *table_; }
    TranslationCache *translationCache() { return tc_.get(); }
    const AsymmetricLayout &layout() const { return *layout_; }
    const DasConfig &config() const { return cfg_; }

    LocationStats locations() const;
    std::uint64_t promotions() const { return promotions_.value(); }
    std::uint64_t demandAccesses() const { return demandAccesses_.value(); }
    std::uint64_t footprintRows() const;

    StatGroup &stats() { return statGroup_; }
    /** Forget the rows touched so far (not mappings): the measured
     *  window's footprint restarts after warm-up. The counters reset
     *  with the owner's stat tree. */
    void resetFootprint();

    /**
     * Attach (or detach with nullptr) a point-event observer for
     * promotion decisions (trace export). Zero cost when null.
     */
    void setEventSink(TraceEventSink *sink) { events_ = sink; }

    /**
     * Attach (or detach with nullptr) the request tracer used to
     * sample the manager's own DRAM traffic (translation-table
     * walks), so rate-1.0 span streams cover every controller-visible
     * request. Demand accesses are sampled by the caller (System).
     */
    void setRequestTracer(RequestTracer *tracer) { tracer_ = tracer; }
    /// @}

    /// @name Checkpointing
    /// @{

    /**
     * Checkpoint the manager: translation table/cache, promotion
     * filter, replacement state, retry queue, in-flight walks, swap
     * groups and the touched-row footprint.
     * Unordered containers are serialised in sorted order so the
     * byte stream is deterministic. Stats ride the owner's StatGroup
     * serdeTree pass.
     */
    void serdeState(Archive &ar);
    /// @}

  private:
    /** A translated request waiting for queue space / table walk. */
    struct PendingAccess
    {
        Addr addr = 0;
        bool isWrite = false;
        int core = -1;
        GlobalRowId logical = 0;
        Cycle readyTick = 0;
        Continuation cont;
        std::unique_ptr<RequestSpan> span; ///< sampled requests only

        void
        serdeState(Archive &ar)
        {
            ar.io(addr);
            ar.io(isWrite);
            ar.io(core);
            ar.io(logical);
            ar.io(readyTick);
            cont.serdeState(ar);
            bool has_span = span != nullptr;
            ar.io(has_span);
            if (has_span) {
                if (ar.loading())
                    span = std::make_unique<RequestSpan>();
                span->serdeState(ar);
            } else if (ar.loading()) {
                span.reset();
            }
        }
    };

    void submitReady(PendingAccess &&acc, Cycle now);
    void trySubmit(PendingAccess &&acc, Cycle now);

    /** DRAM completion sink: table walks to onWalkComplete, everything
     *  else to onDataComplete; a finished swap frees its group. */
    void onRequestDone(MemRequest &req, Cycle at) override;
    void onMigrationDone(const MigrationJob &job, Cycle at) override;

    /** Completion of a demand/writeback data request: location
     *  accounting, promotion policy, then the continuation hook. */
    void onDataComplete(MemRequest &req, Cycle at);

    /** Completion of a translation-table walk: LLC fill plus release
     *  of every access coalesced on the table line. */
    void onWalkComplete(MemRequest &treq, Cycle at);
    void maybePromote(GlobalRowId logical, Cycle now);
    GlobalRowId physicalFor(GlobalRowId logical) const;

    /** Add @p row to the footprint. @pre row < totalRows(). */
    void
    markTouched(GlobalRowId row)
    {
        std::uint64_t &word = touchedRows_.at(row >> 6);
        const std::uint64_t bit = std::uint64_t{1} << (row & 63);
        touchedCount_ += (word & bit) ? 0 : 1;
        word |= bit;
    }

    DramSystem *dram_;
    CacheHierarchy *caches_;
    const AsymmetricLayout *layout_;
    DasConfig cfg_;

    std::unique_ptr<TranslationTable> table_;
    std::unique_ptr<TranslationCache> tc_;
    std::unique_ptr<PromotionFilter> filter_;
    std::unique_ptr<FastSlotReplacement> repl_;

    TraceEventSink *events_ = nullptr;
    RequestTracer *tracer_ = nullptr;
    CompletionHook completionHook_;

    std::deque<PendingAccess> pending_;
    /** In-flight table-line walks: accesses waiting on the same line. */
    std::unordered_map<Addr, std::vector<PendingAccess>> walksInFlight_;
    std::unordered_set<std::uint64_t> swapsInFlight_; ///< group ids
    /** Footprint: one bit per global row ever accessed since the
     *  last statistics reset, and the number of bits set. */
    ZeroPagedArray<std::uint64_t> touchedRows_;
    std::uint64_t touchedCount_ = 0;

    StatGroup statGroup_;
    Counter demandAccesses_, rowBufferHits_, fastAccesses_, slowAccesses_;
    Counter promotions_, promotionsSkippedBusy_, tableWalksLlc_;
    Counter tableWalksDram_, writebacks_;
    /** Always zero; kept registered so the stat tree keeps its shape. */
    Counter cleanPromotions_, dirtyPromotions_;
};

} // namespace dasdram

#endif // DASDRAM_CORE_DAS_MANAGER_HH
