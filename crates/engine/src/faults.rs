//! Deterministic fault injection for the engine and the wire front end.
//!
//! A [`FaultPlan`] is a telemetry-style handle: a true no-op unless armed. The default
//! ([`FaultPlan::disabled`]) carries no allocation and every checkpoint reduces to one branch
//! on an `Option`, so production paths pay nothing for the hooks. An armed plan is parsed
//! from a spec string ([`FaultPlan::parse`]) and handed to `ServiceBuilder::faults` or the
//! wire server's configuration.
//!
//! Every injection point is **deterministic**: rules trigger on exact per-site ordinals
//! (shard *s*'s *n*-th non-empty flush, the server's *c*-th accepted connection, the queue's
//! *k*-th fail-fast submit) or on fixed periods, and the only randomised trigger (`prob:`)
//! draws from a seeded xorshift generator owned by the plan, so a given spec replays the
//! same fault schedule on every run. Clones of a plan share one set of counters — the
//! service hands the same plan to every shard and to the wire server, and the connection
//! ordinal keeps counting across all of them.
//!
//! # Spec grammar ([`FaultPlan::parse`])
//!
//! A spec is a `;`-separated list of rules. Each rule is `name=arg,arg,...` where an arg is
//! `key:value` (or the bare flag `entry`). Unknown names, keys, or malformed integers are
//! parse errors ([`FaultSpecError`] names the offending rule), never silently dropped
//! rules.
//!
//! | rule | args | effect |
//! |------|------|--------|
//! | `flush_panic` | `shard:<s>` (optional: any shard if absent), `flush:<n>` **or** `every:<k>`, `entry` (flag) | panic inside the matching shard's *n*-th (or every *k*-th) non-empty flush. Default mode panics **after** the deletion batch has been applied, leaving the engine torn — the service quarantines it. With `entry`, the panic fires before any buffered work is consumed; the service proves the catch path and retries the flush transparently. |
//! | `torn_write` | `after:<bytes>`, `conn:<c>` **or** `every:<k>` | the server writes only the first `<bytes>` bytes of the response on the matching connection, then drops it. |
//! | `drop_conn` | `conn:<c>` **or** `every:<k>` | the server accepts and immediately closes the matching connection without replying. |
//! | `delay` | `ms:<m>`, `conn:<c>` **or** `every:<k>` | the server sleeps `<m>` ms before replying on the matching connection. |
//! | `queue_full` | `every:<k>` **or** `prob:<permille>` | a fail-fast submit ([`Backpressure::Fail`](crate::Backpressure::Fail) / `try_submit`) is rejected as queue-full even though capacity remains. |
//! | `crash` | `after_wal:<n>` **or** `every:<k>` **or** `mid_checkpoint:<n>` | simulated process death of the durability layer: the `<n>`-th (or every `<k>`-th, first match) WAL append completes and then the layer goes dead, or the `<n>`-th checkpoint write lands corrupt and the layer goes dead. A dead layer silently drops every later WAL/checkpoint write while the in-memory service keeps serving — a restart from the durable directory then recovers exactly the durable prefix. |
//! | `wal_torn` | `at:<n>` **or** `every:<k>` | the matching WAL append is written as a *partial frame* — the on-disk shape of a crash mid-write — and the layer goes dead. The next open truncates the torn tail. |
//! | `seed` | bare value: `seed=<u64>` | seeds the generator behind `prob:` triggers (default 0x5EED). |
//!
//! Example: `flush_panic=shard:1,flush:3;torn_write=every:2,after:64;seed=7`.
//!
//! Connection ordinals are 1-based and count *accepted* connections in accept order;
//! flush ordinals are 1-based and count each shard's non-empty flush attempts (retries
//! after an `entry` panic count as new attempts, so `every:1,entry` quarantines after one
//! retry — use periods ≥ 2 for a suite that should stay green).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

/// The panic payload used by injected flush panics.
///
/// The service's `catch_unwind` wrapper downcasts caught payloads to this type to tell an
/// injected fault apart from a genuine engine bug, and to tell a *safe* entry panic (no
/// buffered work consumed — the flush may simply be retried) from a torn one (the deletion
/// batch was already applied — the shard must be quarantined and rebuilt).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// The shard index the fault fired in.
    pub shard: usize,
    /// The 1-based non-empty-flush ordinal the fault fired on.
    pub ordinal: u64,
    /// True when the panic fired at flush entry, before any buffered work was consumed.
    pub at_entry: bool,
}

impl InjectedFault {
    /// Raises this fault as a panic. The process-wide quiet hook installed by armed plans
    /// suppresses the default "thread panicked" banner for this payload type, so injected
    /// faults do not spam test output.
    pub fn fire(self) -> ! {
        std::panic::panic_any(self)
    }
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected {} panic in shard {} on flush {}",
            if self.at_entry { "entry" } else { "torn" },
            self.shard,
            self.ordinal
        )
    }
}

/// A wire-level fault decided per accepted connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireFault {
    /// Close the connection without replying.
    Drop,
    /// Sleep for the given duration before replying.
    Delay(Duration),
    /// Write only the first `n` bytes of the response, then drop the connection.
    TornWrite(usize),
}

/// What the durability layer should do with one WAL append, as decided by the plan's
/// `crash` / `wal_torn` rules.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WalWriteFault {
    /// Write the record normally. (When a `crash=after_wal` rule matched this ordinal, the
    /// record is still written — the simulated death happens *after* the append, which is
    /// exactly the post-WAL-append crash point — and every later write is skipped.)
    Proceed,
    /// Write a deliberately partial frame (crash mid-write); the layer is dead afterwards.
    Torn,
    /// The layer is already dead: drop the write silently.
    Skip,
}

/// What the durability layer should do with one checkpoint write.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CheckpointWriteFault {
    /// Write the checkpoint normally.
    Proceed,
    /// Write the checkpoint with a damaged payload (crash/bit-rot mid-checkpoint); the
    /// layer is dead afterwards and recovery must fall back past this file.
    Corrupt,
    /// The layer is already dead: drop the write silently.
    Skip,
}

/// A malformed fault spec (see [`FaultPlan::parse`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpecError {
    /// The rule text that failed to parse.
    pub rule: String,
    /// What was wrong with it.
    pub reason: String,
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault rule `{}`: {}", self.rule, self.reason)
    }
}

impl std::error::Error for FaultSpecError {}

/// When a per-site rule triggers: on one exact ordinal, or on every `k`-th.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Trigger {
    At(u64),
    Every(u64),
}

impl Trigger {
    fn matches(self, ordinal: u64) -> bool {
        match self {
            Trigger::At(n) => ordinal == n,
            Trigger::Every(k) => k > 0 && ordinal.is_multiple_of(k),
        }
    }
}

#[derive(Clone, Debug)]
struct FlushRule {
    shard: Option<usize>,
    when: Trigger,
    at_entry: bool,
}

#[derive(Clone, Debug)]
struct ConnRule {
    fault: WireFault,
    when: Trigger,
}

#[derive(Debug)]
struct PlanInner {
    flush_rules: Vec<FlushRule>,
    conn_rules: Vec<ConnRule>,
    queue_trigger: Option<Trigger>,
    queue_prob_permille: Option<u64>,
    crash_after_wal: Option<Trigger>,
    crash_mid_checkpoint: Option<Trigger>,
    wal_torn: Option<Trigger>,
    conn_counter: AtomicU64,
    submit_counter: AtomicU64,
    wal_counter: AtomicU64,
    ckpt_counter: AtomicU64,
    /// Set once a `crash`/`wal_torn` rule fires: the durability layer behaves as a dead
    /// process from then on (all writes dropped), shared across every clone of the plan.
    durable_dead: AtomicBool,
    rng: AtomicU64,
}

/// A deterministic fault-injection plan. See the [module docs](self) for the spec grammar.
///
/// Cheap to clone; clones share the plan's counters (connection and submit ordinals, the
/// seeded generator), so one plan threaded through shards, queue, and wire server describes
/// one global fault schedule.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    inner: Option<Arc<PlanInner>>,
}

/// Suppresses the default panic banner for [`InjectedFault`] payloads; installed once,
/// process-wide, the first time an armed plan is built. All other panics still reach the
/// previously installed hook untouched.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                previous(info);
            }
        }));
    });
}

impl FaultPlan {
    /// The no-op plan: every checkpoint is a single branch and nothing ever fires.
    pub fn disabled() -> FaultPlan {
        FaultPlan { inner: None }
    }

    /// Parses a fault spec (the grammar in the [module docs](self)). An empty spec yields a
    /// disabled plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut flush_rules = Vec::new();
        let mut conn_rules = Vec::new();
        let mut queue_trigger = None;
        let mut queue_prob = None;
        let mut crash_after_wal = None;
        let mut crash_mid_checkpoint = None;
        let mut wal_torn = None;
        let mut seed = 0x5EEDu64;

        for rule in spec.split(';').map(str::trim).filter(|r| !r.is_empty()) {
            let err = |reason: &str| FaultSpecError {
                rule: rule.to_string(),
                reason: reason.to_string(),
            };
            let (name, args) = rule.split_once('=').ok_or_else(|| err("missing `=`"))?;
            let parse_u64 = |v: &str, what: &str| {
                v.parse::<u64>()
                    .map_err(|_| err(&format!("{what} is not an integer")))
            };
            match name.trim() {
                "seed" => seed = parse_u64(args.trim(), "seed")?,
                "flush_panic" => {
                    let (mut shard, mut when, mut at_entry) = (None, None, false);
                    for arg in args.split(',').map(str::trim) {
                        match arg.split_once(':') {
                            Some(("shard", v)) => shard = Some(parse_u64(v, "shard")? as usize),
                            Some(("flush", v)) => when = Some(Trigger::At(parse_u64(v, "flush")?)),
                            Some(("every", v)) => {
                                when = Some(Trigger::Every(parse_u64(v, "every")?))
                            }
                            None if arg == "entry" => at_entry = true,
                            _ => return Err(err(&format!("unknown flush_panic arg `{arg}`"))),
                        }
                    }
                    let when = when.ok_or_else(|| err("needs `flush:<n>` or `every:<k>`"))?;
                    flush_rules.push(FlushRule {
                        shard,
                        when,
                        at_entry,
                    });
                }
                "torn_write" | "drop_conn" | "delay" => {
                    let (mut when, mut after, mut ms) = (None, None, None);
                    for arg in args.split(',').map(str::trim) {
                        match arg.split_once(':') {
                            Some(("conn", v)) => when = Some(Trigger::At(parse_u64(v, "conn")?)),
                            Some(("every", v)) => {
                                when = Some(Trigger::Every(parse_u64(v, "every")?))
                            }
                            Some(("after", v)) => after = Some(parse_u64(v, "after")? as usize),
                            Some(("ms", v)) => ms = Some(parse_u64(v, "ms")?),
                            _ => return Err(err(&format!("unknown {name} arg `{arg}`"))),
                        }
                    }
                    let when = when.ok_or_else(|| err("needs `conn:<c>` or `every:<k>`"))?;
                    let fault = match name.trim() {
                        "torn_write" => WireFault::TornWrite(
                            after.ok_or_else(|| err("torn_write needs `after:<bytes>`"))?,
                        ),
                        "drop_conn" => WireFault::Drop,
                        _ => WireFault::Delay(Duration::from_millis(
                            ms.ok_or_else(|| err("delay needs `ms:<m>`"))?,
                        )),
                    };
                    conn_rules.push(ConnRule { fault, when });
                }
                "queue_full" => {
                    for arg in args.split(',').map(str::trim) {
                        match arg.split_once(':') {
                            Some(("every", v)) => {
                                queue_trigger = Some(Trigger::Every(parse_u64(v, "every")?))
                            }
                            Some(("at", v)) => {
                                queue_trigger = Some(Trigger::At(parse_u64(v, "at")?))
                            }
                            Some(("prob", v)) => {
                                let p = parse_u64(v, "prob")?;
                                if p > 1000 {
                                    return Err(err("prob is permille: 0..=1000"));
                                }
                                queue_prob = Some(p);
                            }
                            _ => return Err(err(&format!("unknown queue_full arg `{arg}`"))),
                        }
                    }
                    if queue_trigger.is_none() && queue_prob.is_none() {
                        return Err(err("needs `every:<k>`, `at:<n>`, or `prob:<permille>`"));
                    }
                }
                "crash" => {
                    for arg in args.split(',').map(str::trim) {
                        match arg.split_once(':') {
                            Some(("after_wal", v)) => {
                                crash_after_wal = Some(Trigger::At(parse_u64(v, "after_wal")?))
                            }
                            Some(("every", v)) => {
                                crash_after_wal = Some(Trigger::Every(parse_u64(v, "every")?))
                            }
                            Some(("mid_checkpoint", v)) => {
                                crash_mid_checkpoint =
                                    Some(Trigger::At(parse_u64(v, "mid_checkpoint")?))
                            }
                            _ => return Err(err(&format!("unknown crash arg `{arg}`"))),
                        }
                    }
                    if crash_after_wal.is_none() && crash_mid_checkpoint.is_none() {
                        return Err(err(
                            "needs `after_wal:<n>`, `every:<k>`, or `mid_checkpoint:<n>`",
                        ));
                    }
                }
                "wal_torn" => {
                    for arg in args.split(',').map(str::trim) {
                        match arg.split_once(':') {
                            Some(("at", v)) => wal_torn = Some(Trigger::At(parse_u64(v, "at")?)),
                            Some(("every", v)) => {
                                wal_torn = Some(Trigger::Every(parse_u64(v, "every")?))
                            }
                            _ => return Err(err(&format!("unknown wal_torn arg `{arg}`"))),
                        }
                    }
                    if wal_torn.is_none() {
                        return Err(err("needs `at:<n>` or `every:<k>`"));
                    }
                }
                other => return Err(err(&format!("unknown fault `{other}`"))),
            }
        }

        if flush_rules.is_empty()
            && conn_rules.is_empty()
            && queue_trigger.is_none()
            && queue_prob.is_none()
            && crash_after_wal.is_none()
            && crash_mid_checkpoint.is_none()
            && wal_torn.is_none()
        {
            return Ok(FaultPlan::disabled());
        }
        install_quiet_hook();
        Ok(FaultPlan {
            inner: Some(Arc::new(PlanInner {
                flush_rules,
                conn_rules,
                queue_trigger,
                queue_prob_permille: queue_prob,
                crash_after_wal,
                crash_mid_checkpoint,
                wal_torn,
                conn_counter: AtomicU64::new(0),
                submit_counter: AtomicU64::new(0),
                wal_counter: AtomicU64::new(0),
                ckpt_counter: AtomicU64::new(0),
                durable_dead: AtomicBool::new(false),
                // xorshift state must be non-zero.
                rng: AtomicU64::new(seed | 1),
            })),
        })
    }

    /// True when any rule is armed. Disabled plans make every checkpoint a one-branch no-op.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Flush checkpoint: the fault to raise for shard `shard`'s `ordinal`-th non-empty
    /// flush, if a rule matches. The caller decides where in the flush to
    /// [`fire`](InjectedFault::fire) it based on `at_entry`.
    pub fn flush_fault(&self, shard: usize, ordinal: u64) -> Option<InjectedFault> {
        let inner = self.inner.as_deref()?;
        inner
            .flush_rules
            .iter()
            .find(|r| r.shard.is_none_or(|s| s == shard) && r.when.matches(ordinal))
            .map(|r| InjectedFault {
                shard,
                ordinal,
                at_entry: r.at_entry,
            })
    }

    /// Queue checkpoint: true when this fail-fast submit should be rejected as queue-full.
    /// Counts one submit ordinal per call.
    pub fn queue_full_spike(&self) -> bool {
        let Some(inner) = self.inner.as_deref() else {
            return false;
        };
        let ordinal = inner.submit_counter.fetch_add(1, Ordering::Relaxed) + 1;
        if inner.queue_trigger.is_some_and(|t| t.matches(ordinal)) {
            return true;
        }
        match inner.queue_prob_permille {
            Some(p) => inner.next_rand() % 1000 < p,
            None => false,
        }
    }

    /// WAL checkpoint: what the durability layer should do with its next record append.
    /// Counts one WAL-append ordinal per call (shared across clones); a matching `crash`
    /// or `wal_torn` rule flips the shared dead flag so every later durable write —
    /// WAL *and* checkpoint — is skipped, exactly as if the process had died there.
    pub fn wal_append_fault(&self) -> WalWriteFault {
        let Some(inner) = self.inner.as_deref() else {
            return WalWriteFault::Proceed;
        };
        if inner.durable_dead.load(Ordering::Relaxed) {
            return WalWriteFault::Skip;
        }
        let ordinal = inner.wal_counter.fetch_add(1, Ordering::Relaxed) + 1;
        if inner.wal_torn.is_some_and(|t| t.matches(ordinal)) {
            inner.durable_dead.store(true, Ordering::Relaxed);
            return WalWriteFault::Torn;
        }
        if inner.crash_after_wal.is_some_and(|t| t.matches(ordinal)) {
            inner.durable_dead.store(true, Ordering::Relaxed);
            // The crash happens *after* this append: write it, then go dead.
        }
        WalWriteFault::Proceed
    }

    /// Checkpoint-write checkpoint: what the durability layer should do with its next
    /// checkpoint. Counts one checkpoint ordinal per call, shared across clones.
    pub fn checkpoint_fault(&self) -> CheckpointWriteFault {
        let Some(inner) = self.inner.as_deref() else {
            return CheckpointWriteFault::Proceed;
        };
        if inner.durable_dead.load(Ordering::Relaxed) {
            return CheckpointWriteFault::Skip;
        }
        let ordinal = inner.ckpt_counter.fetch_add(1, Ordering::Relaxed) + 1;
        if inner
            .crash_mid_checkpoint
            .is_some_and(|t| t.matches(ordinal))
        {
            inner.durable_dead.store(true, Ordering::Relaxed);
            return CheckpointWriteFault::Corrupt;
        }
        CheckpointWriteFault::Proceed
    }

    /// Wire checkpoint: the fault (if any) for the next accepted connection. Counts one
    /// connection ordinal per call, shared across every clone of the plan.
    pub fn connection_fault(&self) -> Option<WireFault> {
        let inner = self.inner.as_deref()?;
        let ordinal = inner.conn_counter.fetch_add(1, Ordering::Relaxed) + 1;
        inner
            .conn_rules
            .iter()
            .find(|r| r.when.matches(ordinal))
            .map(|r| r.fault.clone())
    }
}

impl PlanInner {
    /// One draw from the seeded xorshift64 generator shared by all clones of the plan.
    fn next_rand(&self) -> u64 {
        self.rng
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |mut x| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Some(x)
            })
            .expect("fetch_update closure always returns Some")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_enabled());
        assert!(plan.flush_fault(0, 1).is_none());
        assert!(plan.connection_fault().is_none());
        assert!(!plan.queue_full_spike());
    }

    #[test]
    fn empty_spec_is_disabled() {
        assert!(!FaultPlan::parse("").unwrap().is_enabled());
        assert!(!FaultPlan::parse("  ;  ").unwrap().is_enabled());
    }

    #[test]
    fn flush_rules_match_shard_and_ordinal() {
        let plan = FaultPlan::parse("flush_panic=shard:1,flush:3").unwrap();
        assert!(plan.flush_fault(1, 2).is_none());
        assert!(plan.flush_fault(0, 3).is_none());
        let fault = plan.flush_fault(1, 3).expect("rule matches");
        assert_eq!(
            fault,
            InjectedFault {
                shard: 1,
                ordinal: 3,
                at_entry: false
            }
        );
        assert!(plan.flush_fault(1, 4).is_none(), "exact ordinals fire once");
    }

    #[test]
    fn entry_flag_and_periodic_trigger() {
        let plan = FaultPlan::parse("flush_panic=every:2,entry").unwrap();
        assert!(plan.flush_fault(0, 1).is_none());
        assert!(plan.flush_fault(7, 2).is_some_and(|f| f.at_entry));
        assert!(plan.flush_fault(3, 4).is_some());
    }

    #[test]
    fn connection_faults_count_accepted_connections_across_clones() {
        let plan =
            FaultPlan::parse("drop_conn=conn:2;delay=conn:3,ms:5;torn_write=every:4,after:16")
                .unwrap();
        let clone = plan.clone();
        assert_eq!(plan.connection_fault(), None); // conn 1
        assert_eq!(clone.connection_fault(), Some(WireFault::Drop)); // conn 2: shared counter
        assert_eq!(
            plan.connection_fault(),
            Some(WireFault::Delay(Duration::from_millis(5)))
        );
        assert_eq!(plan.connection_fault(), Some(WireFault::TornWrite(16)));
        assert_eq!(plan.connection_fault(), None); // conn 5
    }

    #[test]
    fn queue_spikes_fire_on_period() {
        let plan = FaultPlan::parse("queue_full=every:3").unwrap();
        let fired: Vec<bool> = (0..6).map(|_| plan.queue_full_spike()).collect();
        assert_eq!(fired, [false, false, true, false, false, true]);
    }

    #[test]
    fn probabilistic_spikes_are_seed_deterministic() {
        let a = FaultPlan::parse("queue_full=prob:500;seed=42").unwrap();
        let b = FaultPlan::parse("queue_full=prob:500;seed=42").unwrap();
        let draws = |p: &FaultPlan| (0..64).map(|_| p.queue_full_spike()).collect::<Vec<_>>();
        let (da, db) = (draws(&a), draws(&b));
        assert_eq!(da, db, "same seed, same schedule");
        assert!(da.iter().any(|&x| x) && da.iter().any(|&x| !x));
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in [
            "nonsense=1",
            "flush_panic=shard:0",            // no trigger
            "flush_panic=shard:zero,flush:1", // not an integer
            "torn_write=every:2",             // missing after
            "delay=conn:1",                   // missing ms
            "queue_full=prob:2000",           // permille out of range
            "queue_full=",
            "seed",
            "crash=",                // no trigger
            "crash=banana:1",        // unknown arg
            "crash=after_wal:soon",  // not an integer
            "wal_torn=",             // no trigger
            "wal_torn=every:always", // not an integer
            "wal_torn=conn:1",       // wrong key
        ] {
            let err = FaultPlan::parse(bad).expect_err(&format!("`{bad}` must not parse"));
            assert_eq!(err.rule, bad, "the error names the offending clause");
            assert!(!err.reason.is_empty());
        }
    }

    #[test]
    fn crash_after_wal_writes_the_matching_record_then_goes_dead() {
        let plan = FaultPlan::parse("crash=after_wal:3").unwrap();
        let clone = plan.clone();
        assert_eq!(plan.wal_append_fault(), WalWriteFault::Proceed); // 1
        assert_eq!(plan.wal_append_fault(), WalWriteFault::Proceed); // 2
                                                                     // The 3rd append still proceeds — the simulated death is *post-append*.
        assert_eq!(plan.wal_append_fault(), WalWriteFault::Proceed); // 3
        assert_eq!(
            clone.wal_append_fault(),
            WalWriteFault::Skip,
            "dead via clone"
        );
        assert_eq!(plan.wal_append_fault(), WalWriteFault::Skip);
        // Death is global to the durability layer: checkpoints are dropped too.
        assert_eq!(plan.checkpoint_fault(), CheckpointWriteFault::Skip);
    }

    #[test]
    fn wal_torn_tears_the_matching_record_and_goes_dead() {
        let plan = FaultPlan::parse("wal_torn=at:2").unwrap();
        assert_eq!(plan.wal_append_fault(), WalWriteFault::Proceed);
        assert_eq!(plan.wal_append_fault(), WalWriteFault::Torn);
        assert_eq!(plan.wal_append_fault(), WalWriteFault::Skip);
    }

    #[test]
    fn mid_checkpoint_crash_corrupts_once_then_goes_dead() {
        let plan = FaultPlan::parse("crash=mid_checkpoint:2").unwrap();
        assert_eq!(plan.checkpoint_fault(), CheckpointWriteFault::Proceed);
        assert_eq!(plan.checkpoint_fault(), CheckpointWriteFault::Corrupt);
        assert_eq!(plan.checkpoint_fault(), CheckpointWriteFault::Skip);
        assert_eq!(plan.wal_append_fault(), WalWriteFault::Skip, "WAL dead too");
    }

    #[test]
    fn periodic_crash_rule_fires_on_the_first_multiple_only() {
        // `crash=every:7` (the CI suite spec): appends 1..=6 proceed, 7 proceeds then the
        // layer is dead — the periodicity never produces a second crash because the
        // process is already "dead".
        let plan = FaultPlan::parse("crash=every:7;seed=3").unwrap();
        for _ in 0..7 {
            assert_eq!(plan.wal_append_fault(), WalWriteFault::Proceed);
        }
        assert_eq!(plan.wal_append_fault(), WalWriteFault::Skip);
    }

    #[test]
    fn disabled_plan_never_touches_durability() {
        let plan = FaultPlan::disabled();
        for _ in 0..4 {
            assert_eq!(plan.wal_append_fault(), WalWriteFault::Proceed);
            assert_eq!(plan.checkpoint_fault(), CheckpointWriteFault::Proceed);
        }
    }

    #[test]
    fn injected_fault_displays_mode() {
        let torn = InjectedFault {
            shard: 2,
            ordinal: 5,
            at_entry: false,
        };
        assert_eq!(
            torn.to_string(),
            "injected torn panic in shard 2 on flush 5"
        );
    }
}
