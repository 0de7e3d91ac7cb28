#include "sim/invariants.hh"

namespace ssmt
{
namespace sim
{

namespace
{

/** Accumulates violations; one call per named relation. */
struct Checker
{
    std::vector<InvariantViolation> out;

    void
    le(const char *relation, const char *expr, uint64_t lhs,
       uint64_t rhs)
    {
        if (lhs > rhs) {
            out.push_back({relation,
                           std::string(expr) + " violated (" +
                               std::to_string(lhs) + " > " +
                               std::to_string(rhs) + ")"});
        }
    }

    void
    eq(const char *relation, const char *expr, uint64_t lhs,
       uint64_t rhs)
    {
        if (lhs != rhs) {
            out.push_back({relation,
                           std::string(expr) + " violated (" +
                               std::to_string(lhs) +
                               " != " + std::to_string(rhs) + ")"});
        }
    }

    void
    implies(const char *relation, const char *expr, bool antecedent,
            bool consequent)
    {
        if (antecedent && !consequent)
            out.push_back({relation,
                           std::string(expr) + " violated"});
    }
};

} // namespace

std::vector<InvariantViolation>
StatsChecker::check(const Stats &s)
{
    Checker c;

    // ---- Progress ----
    c.le("fetch-bubbles-le-cycles",
         "fetchBubbleCycles <= cycles", s.fetchBubbleCycles, s.cycles);

    // ---- Branch accounting ----
    c.le("cond-mispredicts-le-branches",
         "condHwMispredicts <= condBranches", s.condHwMispredicts,
         s.condBranches);
    c.le("indirect-mispredicts-le-branches",
         "indirectHwMispredicts <= indirectBranches",
         s.indirectHwMispredicts, s.indirectBranches);
    // usedMispredicts counts retired terminating branches only.
    c.le("used-mispredicts-le-term-branches",
         "usedMispredicts <= condBranches + indirectBranches",
         s.usedMispredicts, s.condBranches + s.indirectBranches);
    // Every used-misprediction traces back to either a hardware
    // misprediction left standing or a wrong consumed microthread
    // prediction; a correct override can only remove mispredictions.
    c.le("used-mispredicts-source",
         "usedMispredicts <= condHwMispredicts + "
         "indirectHwMispredicts + microPredWrong",
         s.usedMispredicts,
         s.condHwMispredicts + s.indirectHwMispredicts +
             s.microPredWrong);
    c.le("oracle-overrides-le-term-branches",
         "oracleOverrides <= condBranches + indirectBranches",
         s.oracleOverrides, s.condBranches + s.indirectBranches);

    // ---- Spawn conservation (Section 4.3.2) ----
    // Every spawn attempt resolves to exactly one outcome: aborted on
    // the path prefix, dropped for lack of a microcontext, or spawned.
    c.eq("spawn-conservation",
         "spawnAbortPrefix + spawnNoContext + spawns == spawnAttempts",
         s.spawnAbortPrefix + s.spawnNoContext + s.spawns,
         s.spawnAttempts);
    // A spawned microthread either aborts in flight or completes
    // (or is still live when the run ends).
    c.le("spawn-outcomes-le-spawns",
         "abortsPostSpawn + microthreadsCompleted <= spawns",
         s.abortsPostSpawn + s.microthreadsCompleted, s.spawns);
    // A completed microthread executed at least one op.
    c.le("completed-threads-le-microops",
         "microthreadsCompleted <= microOpsExecuted",
         s.microthreadsCompleted, s.microOpsExecuted);
    // Spawning requires a routine in the MicroRAM, i.e. a completed
    // promotion.
    c.implies("spawns-require-promotion",
              "spawnAttempts > 0 implies promotionsCompleted > 0",
              s.spawnAttempts > 0, s.promotionsCompleted > 0);

    // ---- Promotion / build pipeline ----
    // Rebuild requests reuse the builder without re-requesting the
    // promotion, so completions are bounded by the sum.
    c.le("promotions-completed-le-requests",
         "promotionsCompleted <= promotionsRequested + rebuildRequests",
         s.promotionsCompleted,
         s.promotionsRequested + s.rebuildRequests);
    c.eq("builds-accounted",
         "build.built + build.failScopeNotInPrb + "
         "build.failPathMismatch == build.requests",
         s.build.built + s.build.failScopeNotInPrb +
             s.build.failPathMismatch,
         s.build.requests);
    c.eq("build-failures-accounted",
         "buildsFailed == build.failScopeNotInPrb + "
         "build.failPathMismatch",
         s.buildsFailed,
         s.build.failScopeNotInPrb + s.build.failPathMismatch);
    c.le("built-routines-nonempty", "build.built <= build.totalOps",
         s.build.built, s.build.totalOps);
    c.le("pruned-routines-le-built",
         "build.prunedRoutines <= build.built", s.build.prunedRoutines,
         s.build.built);
    // Only promoted paths can be demoted, and the throttle is one of
    // the demotion causes.
    c.le("demotions-le-promotions-completed",
         "demotions <= promotionsCompleted", s.demotions,
         s.promotionsCompleted);
    c.le("throttle-demotions-le-demotions",
         "throttleDemotions <= demotions", s.throttleDemotions,
         s.demotions);

    // ---- Prediction timeliness (Figure 9) ----
    // Early and late predictions are each graded correct/wrong
    // exactly once; useless and never-reached ones are not graded.
    c.eq("pred-timeliness-classified",
         "microPredCorrect + microPredWrong == predEarly + predLate",
         s.microPredCorrect + s.microPredWrong,
         s.predEarly + s.predLate);
    // An early prediction is, by definition, a Prediction Cache hit
    // at branch fetch — and the front-end probes nowhere else.
    c.eq("early-preds-eq-pcache-hits",
         "predEarly == pcacheLookupHits", s.predEarly,
         s.pcacheLookupHits);
    c.le("early-preds-le-pcache-writes",
         "predEarly <= pcacheWrites", s.predEarly, s.pcacheWrites);
    // Recoveries are triggered only by late predictions.
    c.le("recoveries-le-late-preds",
         "earlyRecoveries + bogusRecoveries <= predLate",
         s.earlyRecoveries + s.bogusRecoveries, s.predLate);

    // ---- Path Cache (Section 4.1) ----
    // An update of an untracked path either allocates or is skipped
    // by the mispredict-only allocation filter; updates of tracked
    // paths do neither.
    c.le("pathcache-allocation-split",
         "pathCacheAllocations + pathCacheAllocationsSkipped <= "
         "pathCacheUpdates",
         s.pathCacheAllocations + s.pathCacheAllocationsSkipped,
         s.pathCacheUpdates);
    // The Path Cache is updated once per retired terminating branch.
    c.le("pathcache-updates-le-term-branches",
         "pathCacheUpdates <= condBranches + indirectBranches",
         s.pathCacheUpdates, s.condBranches + s.indirectBranches);

    // ---- Memory hierarchy ----
    c.le("l1d-misses-le-accesses", "l1dMisses <= l1dAccesses",
         s.l1dMisses, s.l1dAccesses);
    c.le("l2-misses-le-accesses", "l2Misses <= l2Accesses",
         s.l2Misses, s.l2Accesses);

    return c.out;
}

std::string
StatsChecker::describe(const std::vector<InvariantViolation> &violations)
{
    std::string out;
    for (const InvariantViolation &v : violations) {
        out += "  [";
        out += v.relation;
        out += "] ";
        out += v.detail;
        out += '\n';
    }
    return out;
}

} // namespace sim
} // namespace ssmt
