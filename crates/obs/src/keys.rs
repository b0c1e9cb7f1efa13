//! The metric key registry.
//!
//! Every instrumented call site uses one of these constants, so the
//! set of keys a binary can emit is closed and greppable, and
//! `docs/METRICS.md` can document each one's unit and the theorem it
//! checks against. Naming convention: `<layer>.<subject>.<measure>`,
//! with `<layer>.round.*` for per-round histogram observations and
//! plain `<layer>.*` for run-total counters.
//!
//! The `registry!` declaration also collects every
//! key into [`ALL`], and [`lookup`] maps a runtime string back to its
//! `&'static str` constant — which is how checkpoint files
//! (`dut_core::checkpoint`) restore a [`crate::MemorySink`] whose maps
//! are keyed by `&'static str`.

/// Declares the key constants and collects them into [`ALL`] so the
/// registry and the constants can never drift apart.
macro_rules! registry {
    ($($(#[$meta:meta])* $name:ident = $value:literal;)+) => {
        $($(#[$meta])* pub const $name: &str = $value;)+

        /// Every key in the registry, in declaration order.
        pub const ALL: &[&str] = &[$($value),+];
    };
}

registry! {
    // -------------------------------------------------------------- netsim

    /// Counter: engine runs completed (one per successful `Network::run`).
    NETSIM_RUNS = "netsim.runs";
    /// Counter: synchronous rounds executed, summed over runs.
    NETSIM_ROUNDS = "netsim.rounds";
    /// Counter: messages delivered, summed over runs.
    NETSIM_MESSAGES = "netsim.messages";
    /// Counter: message payload bits metered by the bandwidth model.
    NETSIM_BITS = "netsim.bits";
    /// Histogram: messages delivered in one round.
    NETSIM_ROUND_MESSAGES = "netsim.round.messages";
    /// Histogram: payload bits delivered in one round.
    NETSIM_ROUND_BITS = "netsim.round.bits";
    /// Histogram: max bits crossing any single directed edge in one round
    /// (per-round slot congestion; the CONGEST model caps this).
    NETSIM_ROUND_MAX_EDGE_BITS = "netsim.round.max_edge_bits";
    /// Histogram: wall-clock nanoseconds spent executing one round
    /// (node stepping + metering + delivery).
    NETSIM_ROUND_NANOS = "netsim.round.nanos";
    /// Histogram: per-run max bits on any directed edge in any round.
    NETSIM_RUN_MAX_EDGE_BITS = "netsim.run.max_edge_bits";

    // ------------------------------------------- netsim scale-out (PR 8)

    /// Counter: rounds after round 0, each stepped through the active
    /// list (nodes with mail, nodes that asked to wake through
    /// `NodeProtocol::wants_round`, and rejoining nodes). Recorded by
    /// every observed run.
    NETSIM_SPARSE_ROUNDS = "netsim.sparse.rounds";
    /// Histogram: nodes visited in one round after round 0 (round 0
    /// visits all nodes and is not recorded).
    NETSIM_SPARSE_ACTIVE_NODES = "netsim.sparse.active_nodes";

    // -------------------------------------------------- netsim fault layer

    /// Counter: messages dropped in transit by fault injection (the sender
    /// was still metered for them). Recorded only on faulted runs.
    NETSIM_FAULT_DROPPED_MESSAGES = "netsim.fault.dropped_messages";
    /// Counter: wire bits flipped in transit by fault injection. Recorded
    /// only on faulted runs.
    NETSIM_FAULT_FLIPPED_BITS = "netsim.fault.flipped_bits";
    /// Counter: scheduled node crashes that took effect within the run.
    NETSIM_FAULT_CRASHED_NODES = "netsim.fault.crashed_nodes";
    /// Counter: scheduled node rejoins that took effect within the run
    /// (a crashed node coming back with its pre-crash state). Recorded
    /// only on faulted runs whose plan has a rejoin schedule.
    NETSIM_REJOIN_NODES = "netsim.rejoin.nodes";
    /// Counter: total rounds spent down by nodes whose outage ended in
    /// a rejoin (each rejoin contributes `rejoin_round - crash_round`)
    /// — the run's aggregate recovery time.
    NETSIM_REJOIN_DOWNTIME_ROUNDS = "netsim.rejoin.downtime_rounds";
    /// Counter: retransmissions performed by the reliable (ack/retry) tree
    /// primitives, beyond each message's first transmission.
    NETSIM_RELIABLE_RETRANSMITS = "netsim.reliable.retransmits";
    /// Counter: delivery failures in the reliable tree primitives — a
    /// sender exhausted its retry budget, or a receiver hit its deadline
    /// with children still unreported.
    NETSIM_RELIABLE_FAILURES = "netsim.reliable.failures";

    // ----------------------------------------------------- netsim reference

    /// Counter: reference-engine runs completed.
    REFERENCE_RUNS = "reference.runs";
    /// Counter: rounds executed by the reference engine.
    REFERENCE_ROUNDS = "reference.rounds";
    /// Counter: messages delivered by the reference engine.
    REFERENCE_MESSAGES = "reference.messages";
    /// Counter: bits metered by the reference engine.
    REFERENCE_BITS = "reference.bits";
    /// Histogram: messages per round in the reference engine.
    REFERENCE_ROUND_MESSAGES = "reference.round.messages";
    /// Histogram: bits per round in the reference engine.
    REFERENCE_ROUND_BITS = "reference.round.bits";
    /// Histogram: per-round max single-edge bits in the reference engine.
    REFERENCE_ROUND_MAX_EDGE_BITS = "reference.round.max_edge_bits";
    /// Histogram: wall-clock nanoseconds per reference-engine round.
    REFERENCE_ROUND_NANOS = "reference.round.nanos";
    /// Counter: messages dropped by fault injection in the reference
    /// engine (differential mirror of `netsim.fault.dropped_messages`).
    REFERENCE_FAULT_DROPPED_MESSAGES = "reference.fault.dropped_messages";
    /// Counter: wire bits flipped by fault injection in the reference
    /// engine (differential mirror of `netsim.fault.flipped_bits`).
    REFERENCE_FAULT_FLIPPED_BITS = "reference.fault.flipped_bits";

    // ----------------------------------------------- netsim tree primitives

    /// Counter: convergecast invocations.
    CONVERGECAST_RUNS = "netsim.convergecast.runs";
    /// Counter: rounds spent inside convergecast.
    CONVERGECAST_ROUNDS = "netsim.convergecast.rounds";
    /// Counter: payload bits carried by convergecast messages.
    CONVERGECAST_BITS = "netsim.convergecast.bits";
    /// Counter: broadcast invocations.
    BROADCAST_RUNS = "netsim.broadcast.runs";
    /// Counter: rounds spent inside broadcast.
    BROADCAST_ROUNDS = "netsim.broadcast.rounds";
    /// Counter: payload bits carried by broadcast messages.
    BROADCAST_BITS = "netsim.broadcast.bits";

    // ---------------------------------------------------------------- core

    /// Counter: gap-tester runs (one per tested sample multiset).
    CORE_GAP_RUNS = "core.gap.runs";
    /// Counter: samples consumed by the gap tester (Thm 1.1: s per run).
    CORE_GAP_SAMPLES = "core.gap.samples";
    /// Counter: gap-tester runs that found a collision (the tester's
    /// single reject bit; it does not count individual colliding pairs).
    CORE_GAP_COLLISIONS = "core.gap.collisions";
    /// Counter: amplified-tester runs.
    CORE_AMPLIFY_RUNS = "core.amplify.runs";
    /// Counter: independent repetitions executed across amplified runs.
    CORE_AMPLIFY_REPETITIONS = "core.amplify.repetitions";
    /// Counter: rejecting repetitions across amplified runs.
    CORE_AMPLIFY_REJECTIONS = "core.amplify.rejections";
    /// Counter: zero-round network simulations.
    CORE_ZERO_ROUND_RUNS = "core.zero_round.runs";
    /// Counter: per-node votes cast inside zero-round simulations
    /// (equals nodes x runs; the protocol sends no messages, Thm 1.2).
    CORE_ZERO_ROUND_VOTES = "core.zero_round.votes";
    /// Counter: rejecting votes inside zero-round simulations.
    CORE_ZERO_ROUND_REJECTIONS = "core.zero_round.rejections";

    /// Counter: trials an adaptive Monte-Carlo run actually spent
    /// before its confidence sequence stopped it (equals the budget
    /// when the sequence never triggered).
    MC_ADAPTIVE_TRIALS_SPENT = "mc.adaptive.trials_spent";
    /// Counter: the trial budget the adaptive run was allowed
    /// (`trials_spent / budget` is the early-stopping saving).
    MC_ADAPTIVE_BUDGET = "mc.adaptive.budget";
    /// Counter: samples drawn through the batched (lane-oriented)
    /// sampling kernels.
    SAMPLING_BATCH_DRAWS = "sampling.batch.draws";
    /// Counter: LANES-wide blocks processed by the batched kernels
    /// (`draws / blocks` approaches the lane width on large requests).
    SAMPLING_BATCH_BLOCKS = "sampling.batch.blocks";

    // ------------------------------------------------------------- congest

    /// Counter: CONGEST tester runs.
    CONGEST_RUNS = "congest.runs";
    /// Counter: CONGEST rounds consumed (packaging + aggregation phases).
    CONGEST_ROUNDS = "congest.rounds";
    /// Counter: total bits the CONGEST tester put on the wire
    /// (package announcements + convergecast + broadcast; Thm 5.1 budget).
    CONGEST_BITS = "congest.bits";
    /// Counter: sample packages formed across runs.
    CONGEST_PACKAGES = "congest.packages";
    /// Counter: rejecting packages across runs.
    CONGEST_REJECTING_PACKAGES = "congest.rejecting_packages";
    /// Counter: robust (fault-tolerant) CONGEST tester runs.
    CONGEST_ROBUST_RUNS = "congest.robust.runs";
    /// Counter: wire bits corrected by the Justesen message codec across
    /// robust runs (flips below the certified radius, fixed transparently).
    CONGEST_ECC_CORRECTED_BITS = "congest.ecc.corrected_bits";
    /// Counter: codewords the Justesen codec failed to decode (corruption
    /// beyond the certified radius); each is treated as a dropped message
    /// and left to the retry layer.
    CONGEST_ECC_DECODE_FAILURES = "congest.ecc.decode_failures";
    /// Counter: retransmissions performed by the robust tester's ARQ
    /// phases (residue, forwarding, aggregation, broadcast).
    CONGEST_ROBUST_RETRANSMITS = "congest.robust.retransmits";
    /// Counter: unrecovered delivery failures in robust runs (retry budget
    /// or deadline exhausted somewhere in the pipeline).
    CONGEST_ROBUST_FAILURES = "congest.robust.failures";
    /// Counter: conductance tester runs (plain + robust).
    CONGEST_CONDUCTANCE_RUNS = "congest.conductance.runs";
    /// Counter: fault-hardened (coded/ARQ) conductance tester runs.
    CONGEST_CONDUCTANCE_ROBUST_RUNS = "congest.conductance.robust_runs";
    /// Counter: total pipeline rounds consumed by conductance runs
    /// (leader + BFS + censuses + walks + collision/verdict phases).
    CONGEST_CONDUCTANCE_ROUNDS = "congest.conductance.rounds";
    /// Counter: rounds spent in the lazy-random-walk phase alone
    /// (the O(log n / Φ) mixing portion of the round budget).
    CONGEST_CONDUCTANCE_WALK_ROUNDS = "congest.conductance.walk_rounds";
    /// Counter: total payload bits conductance runs put on the wire.
    CONGEST_CONDUCTANCE_BITS = "congest.conductance.bits";
    /// Counter: walk tokens surviving to the endpoint census (equals
    /// `k·ℓ` on every successful run — conservation is enforced).
    CONGEST_CONDUCTANCE_TOKENS = "congest.conductance.tokens";
    /// Counter: endpoint collision statistic `S` summed over runs
    /// (same-source resting pairs; the quantity the verdict thresholds).
    CONGEST_CONDUCTANCE_COLLISIONS = "congest.conductance.collisions";
    /// Counter: accepting conductance runs (verdict = expander).
    CONGEST_CONDUCTANCE_ACCEPTS = "congest.conductance.accepts";

    // --------------------------------------------------------------- local

    /// Counter: LOCAL tester runs.
    LOCAL_RUNS = "local.runs";
    /// Counter: LOCAL rounds consumed (Lemma 7.3: O(log* n) radius).
    LOCAL_ROUNDS = "local.rounds";
    /// Counter: nodes selected into the maximal independent set.
    LOCAL_MIS_SIZE = "local.mis_size";
    /// Counter: minimum samples gathered by any MIS center, summed
    /// over runs (each center must clear the Thm 1.1 sample bound).
    LOCAL_MIN_GATHERED = "local.min_gathered";

    // ----------------------------------------------------------------- smp

    /// Counter: SMP protocol executions.
    SMP_RUNS = "smp.runs";
    /// Counter: referee input bits across executions (sum of both
    /// players' message lengths; the Thm 1.4 / simultaneous-messages cost).
    SMP_MESSAGE_BITS = "smp.message_bits";
    /// Counter: accepting executions.
    SMP_ACCEPTS = "smp.accepts";

    // --------------------------------------------------------------- chaos

    /// Counter: protocol executions spent by a fault-boundary search
    /// (rate probes + witness attempts + shrink candidates).
    CHAOS_BOUNDARY_PROBES = "chaos.boundary.probes";
    /// Counter: probe executions that failed (typed error or panic)
    /// across a boundary search.
    CHAOS_BOUNDARY_FAILURES = "chaos.boundary.failures";
    /// Counter: the located drop-rate frontier in parts per million
    /// (`rate * 1e6`, rounded down). Recorded only when the search
    /// bracketed a drop frontier.
    CHAOS_BOUNDARY_DROP_PPM = "chaos.boundary.drop_ppm";
    /// Counter: the located flip-rate frontier in parts per million.
    /// Recorded only when the search bracketed a flip frontier.
    CHAOS_BOUNDARY_FLIP_PPM = "chaos.boundary.flip_ppm";
    /// Counter: fault events (crashes + rejoins) in the minimal witness
    /// plan after delta-debugging. Recorded only when a witness exists.
    CHAOS_BOUNDARY_WITNESS_EVENTS = "chaos.boundary.witness_events";
    /// Counter: candidate executions spent shrinking the witness to
    /// 1-minimality.
    CHAOS_BOUNDARY_SHRINK_STEPS = "chaos.boundary.shrink_steps";

    // ---------------------------------------------------------------- soak

    /// Counter: soak-harness ticks completed (one tick = one traffic
    /// burst into the streaming service plus one robust CONGEST run
    /// under the tick's fault plan).
    SOAK_TICKS = "soak.ticks";
    /// Counter: stream samples that survived the ingest fault coin and
    /// reached the service, across all ticks.
    SOAK_SAMPLES = "soak.samples";
    /// Counter: stream samples lost to the sustained ingest drop rate
    /// before reaching the service.
    SOAK_DROPPED_SAMPLES = "soak.dropped_samples";
    /// Counter: silent verdict flips — a resolved coordinator verdict
    /// (Uniform/Far) that changed to the *other* resolved verdict on a
    /// later tick. The E15 soak verdict requires this to stay 0;
    /// Pending→resolved transitions are not flips.
    SOAK_VERDICT_FLIPS = "soak.verdict_flips";
    /// Counter: robust CONGEST pipeline runs driven by the soak loop.
    SOAK_PIPELINE_RUNS = "soak.pipeline.runs";
    /// Counter: soak pipeline runs that ended `FaultOverwhelmed`
    /// (scheduled crash/rejoin cycles must be absorbed, so this stays 0
    /// unless the sustained drop rate overwhelms a run).
    SOAK_PIPELINE_FAILURES = "soak.pipeline.failures";
    /// Counter: ARQ retransmissions spent by soak pipeline runs,
    /// cumulative across ticks (the bounded-growth check divides this
    /// by `soak.ticks`).
    SOAK_RETRANSMITS = "soak.retransmits";
    /// Histogram: recovery time per scheduled rejoin that was absorbed —
    /// the crashed node's downtime in simulated rounds.
    SOAK_RECOVERY_ROUNDS = "soak.recovery_rounds";

    // -------------------------------------------------------------- stream

    /// Counter: samples ingested by a streaming service across all
    /// labeled streams.
    STREAM_PUSHES = "stream.pushes";
    /// Counter: distinct labeled streams the service has seen.
    STREAM_STREAMS = "stream.streams";
    /// Counter: samples evicted by per-stream sliding windows (each
    /// eviction retires the window's oldest sample from its sketch).
    STREAM_WINDOW_EVICTIONS = "stream.window.evictions";
    /// Counter: shard-local sketch merges performed by the coordinator
    /// (one per non-empty stream folded into a global verdict).
    STREAM_COORDINATOR_MERGES = "stream.coordinator.merges";
    /// Counter: coordinator verdict looks taken so far — the index into
    /// the union-bound Wilson schedule (`sequence_z`) that prices
    /// repeated peeking into the anytime confidence level.
    STREAM_COORDINATOR_LOOKS = "stream.coordinator.looks";
    /// Counter: per-stream votes that currently reject, summed over
    /// coordinator verdicts (the threshold rule compares these to T).
    STREAM_COORDINATOR_REJECTING_VOTES = "stream.coordinator.rejecting_votes";
}

/// Maps a runtime string to the registered `&'static str` key it names,
/// or `None` if no such key exists.
///
/// Sinks ([`crate::MemorySink`]) key their maps by `&'static str` so
/// recording never allocates; anything that *deserializes* metrics
/// (checkpoint resume, JSONL readers) goes through this to get back
/// into the registry.
pub fn lookup(name: &str) -> Option<&'static str> {
    ALL.iter().find(|k| **k == name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_constants() {
        for key in [NETSIM_BITS, CORE_GAP_RUNS, CONGEST_ROUNDS, SMP_ACCEPTS] {
            assert!(ALL.contains(&key));
        }
        assert!(ALL.len() >= 40);
    }

    #[test]
    fn registry_has_no_duplicates() {
        let mut seen = std::collections::BTreeSet::new();
        for key in ALL {
            assert!(seen.insert(*key), "duplicate key {key}");
        }
    }

    #[test]
    fn lookup_round_trips_and_rejects_unknowns() {
        let name = String::from("core.gap.runs");
        assert_eq!(lookup(&name), Some(CORE_GAP_RUNS));
        assert_eq!(lookup("no.such.key"), None);
    }
}
