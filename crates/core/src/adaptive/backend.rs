//! The supervisor: a [`FusionBackend`] that hot-swaps the substrate of
//! the running 5-state IEKF.

use super::context::{ContextConfig, ContextMonitor, ContextState};
use super::ledger::{snapshot_transfer_cycles, ReconfigEvent, ReconfigLedger};
use super::policy::{HysteresisPolicy, PinnedPolicy, ReconfigPolicy, SubstrateId};
use crate::arith::{Arith, F32Arith, F64Arith, OpCounts, QArith, SoftArith};
use crate::estimator::{EstimatorConfig, GenericBoresightEstimator, MisalignmentEstimate};
use crate::filter::KalmanUpdate;
use crate::monitor::Retune;
use crate::session::FusionBackend;
use mathx::Vec2;
use sensors::DmuSample;

/// A switch whose triggering window gated out more than this fraction
/// of its measurement attempts transfers a *reconditioned* covariance
/// (see [`AdaptiveBackend::switch_to`]): majority rejection means the
/// exported `P` no longer reflects the estimate error. A healthy
/// filter never gets near this — the bench scenarios' `f64` windows
/// stay under a few percent even mid fault storm.
const RECONDITION_EXCEED_RATE: f64 = 0.5;

/// Reopen floor for reconditioned transfers, as a fraction of the
/// configured initial sigmas — the same `0.5` the filter's trust
/// region uses when it re-opens a clamped component's variance.
const RECONDITION_SIGMA_FRACTION: f64 = 0.5;

/// The currently resident estimator, one concrete instantiation per
/// switchable substrate. An enum rather than a `Box<dyn ...>` so the
/// steady-state dispatch is a jump, not a vtable + heap indirection,
/// and so the whole supervisor stays a plain `Send` value. The size
/// spread between the float and `i32` fixed-point variants is fine:
/// exactly one instance lives per supervisor, never in bulk storage,
/// and boxing the large variants would put a pointer chase on every
/// sample of the hot path.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum ActiveEstimator {
    F64(GenericBoresightEstimator<F64Arith>),
    F32(GenericBoresightEstimator<F32Arith>),
    Softfloat(GenericBoresightEstimator<SoftArith>),
    Q16(GenericBoresightEstimator<QArith<16>>),
    Q24(GenericBoresightEstimator<QArith<24>>),
}

/// Dispatches `$body` over the active estimator, read-only.
macro_rules! with_active {
    ($active:expr, $est:ident => $body:expr) => {
        match $active {
            ActiveEstimator::F64($est) => $body,
            ActiveEstimator::F32($est) => $body,
            ActiveEstimator::Softfloat($est) => $body,
            ActiveEstimator::Q16($est) => $body,
            ActiveEstimator::Q24($est) => $body,
        }
    };
}

impl ActiveEstimator {
    /// A fresh estimator over `id`'s default arithmetic context.
    fn fresh(id: SubstrateId, config: EstimatorConfig) -> Self {
        match id {
            SubstrateId::F64 => Self::F64(GenericBoresightEstimator::with_arith(
                F64Arith::default(),
                config,
            )),
            SubstrateId::F32 => Self::F32(GenericBoresightEstimator::with_arith(
                F32Arith::default(),
                config,
            )),
            SubstrateId::Softfloat => Self::Softfloat(GenericBoresightEstimator::with_arith(
                SoftArith::default(),
                config,
            )),
            SubstrateId::Q16_16 => Self::Q16(GenericBoresightEstimator::with_arith(
                QArith::<16>::default(),
                config,
            )),
            SubstrateId::Q8_24 => Self::Q24(GenericBoresightEstimator::with_arith(
                QArith::<24>::default(),
                config,
            )),
        }
    }
}

/// A context-aware [`FusionBackend`] wrapping one
/// [`GenericBoresightEstimator`] at a time and migrating its full
/// state between substrates when the [`ReconfigPolicy`] fires and the
/// admission check ([`AdaptiveBackend::admits`]) agrees the target
/// can hold the filter.
///
/// Delegation is pass-through: the inner estimator sees exactly the
/// event sequence a static session would feed it, and context is read
/// only from the `f64`-side records each call already returns — which
/// is why a never-firing policy is bit-identical to the static run
/// (pinned by test). Op, cycle and saturation totals are cumulative
/// across switches: the outgoing substrate's ledger is folded into
/// the supervisor's carried totals before it is dropped, and every
/// transfer charges [`snapshot_transfer_cycles`].
///
/// # Examples
///
/// ```
/// use boresight::adaptive::{AdaptiveBackend, HysteresisPolicy, SubstrateId};
/// use boresight::estimator::EstimatorConfig;
/// use boresight::session::{FusionBackend, FusionSession};
/// use boresight::catalog;
///
/// let spec = catalog::paper_static().with_duration(20.0);
/// let backend = AdaptiveBackend::new(
///     spec.config().estimator,
///     SubstrateId::Q16_16,
///     Box::new(HysteresisPolicy::default()),
/// );
/// let mut session = FusionSession::builder()
///     .source_boxed(spec.into_source(spec.lower_trajectory()))
///     .backend(backend)
///     .truth(spec.truth)
///     .build();
/// session.run_to_end();
/// let supervisor = session.backend_as::<AdaptiveBackend>().unwrap();
/// assert!(supervisor.ledger().validate(SubstrateId::Q16_16).is_ok());
/// ```
pub struct AdaptiveBackend {
    config: EstimatorConfig,
    active: ActiveEstimator,
    active_id: SubstrateId,
    initial_id: SubstrateId,
    policy: Box<dyn ReconfigPolicy>,
    context: ContextMonitor,
    ledger: ReconfigLedger,
    carried_ops: OpCounts,
    carried_cycles: u64,
    vetoed_switches: u64,
}

impl AdaptiveBackend {
    /// A supervisor starting on `initial` under `policy`, with the
    /// default context window.
    pub fn new(
        config: EstimatorConfig,
        initial: SubstrateId,
        policy: Box<dyn ReconfigPolicy>,
    ) -> Self {
        Self::with_context(config, initial, policy, ContextConfig::default())
    }

    /// [`AdaptiveBackend::new`] with an explicit context window.
    pub fn with_context(
        config: EstimatorConfig,
        initial: SubstrateId,
        policy: Box<dyn ReconfigPolicy>,
        context: ContextConfig,
    ) -> Self {
        Self {
            active: ActiveEstimator::fresh(initial, config),
            config,
            active_id: initial,
            initial_id: initial,
            policy,
            context: ContextMonitor::new(context),
            ledger: ReconfigLedger::new(),
            carried_ops: OpCounts::default(),
            carried_cycles: 0,
            vetoed_switches: 0,
        }
    }

    /// The default supervisor the session/spec layers attach for
    /// [`crate::spec::Substrate::Adaptive`]: start on Q16.16, default
    /// hysteresis band (Softfloat under stress).
    pub fn default_for(config: EstimatorConfig) -> Self {
        Self::new(
            config,
            SubstrateId::Q16_16,
            Box::new(HysteresisPolicy::default()),
        )
    }

    /// A supervisor whose policy never fires — the zero-switch
    /// bit-identity reference over `substrate`.
    pub fn pinned(config: EstimatorConfig, substrate: SubstrateId) -> Self {
        Self::new(config, substrate, Box::new(PinnedPolicy))
    }

    /// The substrate currently executing the filter.
    pub fn active_substrate(&self) -> SubstrateId {
        self.active_id
    }

    /// The substrate the session started on.
    pub fn initial_substrate(&self) -> SubstrateId {
        self.initial_id
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The switch log.
    pub fn ledger(&self) -> &ReconfigLedger {
        &self.ledger
    }

    /// Substrate switches so far.
    pub fn switch_count(&self) -> u64 {
        self.ledger.total_switches()
    }

    /// Policy verdicts the admission check refused (see
    /// [`AdaptiveBackend::admits`]).
    pub fn vetoed_switches(&self) -> u64 {
        self.vetoed_switches
    }

    /// Whether `target` can run this filter *right now* — the
    /// supervisor's admission check, consulted before every switch.
    ///
    /// A policy says *when* to move; whether the destination's number
    /// format can hold the filter at all is a property of the filter's
    /// working scales, so the supervisor checks it centrally instead
    /// of trusting every policy to know every substrate. The binding
    /// scale is the measurement-update gate: the innovation covariance
    /// is at least `R = sigma^2` (`sigma` the retuned measurement
    /// 1-sigma), so the 2x2 inversion forms a determinant of order
    /// `sigma^4` and inverse entries of order `1 / sigma^2`. If the
    /// determinant quantizes to zero the gain explodes off a zero
    /// divide; if the inverse saturates the update is garbage — both
    /// observed failure modes of the Q formats on the dynamic
    /// scenarios, and both checkable in `f64` for free before
    /// committing to a transfer. Precision targets (`f64`, softfloat,
    /// `f32`) always pass.
    pub fn admits(&self, target: SubstrateId) -> bool {
        let sigma = with_active!(&self.active, e => e.current_measurement_sigma());
        let s_floor = sigma * sigma;
        let quantum = target.conversion_bound(0.0);
        s_floor * s_floor >= quantum && 1.0 / s_floor <= target.representable_limit()
    }

    /// Cumulative op ledger: every substrate segment so far plus the
    /// active one.
    pub fn total_ops(&self) -> OpCounts {
        let mut total = self.carried_ops;
        let counts = with_active!(&self.active, e => e.filter().arith().counts());
        total.accumulate(&counts);
        total
    }

    /// Cumulative modelled cycles, including every snapshot transfer.
    pub fn total_cycles(&self) -> u64 {
        self.carried_cycles + with_active!(&self.active, e => e.filter().arith().cycles())
    }

    /// Cumulative range-saturation events across every substrate
    /// segment.
    pub fn total_saturations(&self) -> u64 {
        self.total_ops().saturations
    }

    /// Migrates the running filter onto `target`: snapshot out, fold
    /// the outgoing ledger into the carried totals, charge the
    /// transfer, import into a fresh estimator, log the event.
    ///
    /// If the window that triggered the switch gated out a majority
    /// of its measurement attempts — or saw *any* range saturation,
    /// which means the outgoing arithmetic overflowed mid-algorithm —
    /// the exported covariance is no longer an honest statement of
    /// the estimate's error. The classic failure is fixed point
    /// collapsing `P` to its quantization floor while the estimate is
    /// still degrees off, which would freeze the incoming substrate
    /// behind its own gate.
    /// The supervisor then floors the snapshot's covariance diagonal
    /// at the same `(0.5 * initial sigma)^2` reopen floor the
    /// filter's trust region uses, and the incoming substrate
    /// re-converges instead. Calm switches import the covariance
    /// verbatim: a converged, trustworthy `P` keeps gains small, which
    /// is exactly what lets a coarse substrate hold a converged
    /// estimate cheaply.
    fn switch_to(&mut self, target: SubstrateId, ctx: &ContextState) {
        let mut snapshot = with_active!(&self.active, e => e.export_snapshot());
        if ctx.exceed_rate > RECONDITION_EXCEED_RATE || ctx.saturation_rate > 0.0 {
            let filter = &self.config.filter;
            snapshot.filter.recondition_diagonal(
                (filter.initial_angle_sigma * RECONDITION_SIGMA_FRACTION).powi(2),
                (filter.initial_bias_sigma * RECONDITION_SIGMA_FRACTION).powi(2),
            );
        }
        let (counts, cycles) = with_active!(&self.active, e => {
            let arith = e.filter().arith();
            (arith.counts(), arith.cycles())
        });
        self.carried_ops.accumulate(&counts);
        let transfer = snapshot_transfer_cycles();
        self.carried_cycles += cycles + transfer;
        let mut next = ActiveEstimator::fresh(target, self.config);
        with_active!(&mut next, e => e.import_snapshot(&snapshot));
        self.ledger.record(ReconfigEvent {
            at_time_s: ctx.time_s,
            at_update: snapshot.filter.updates,
            from: self.active_id,
            to: target,
            reason: self.policy.name(),
            context: *ctx,
            transfer_cycles: transfer,
        });
        self.active = next;
        self.active_id = target;
    }
}

impl std::fmt::Debug for AdaptiveBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveBackend")
            .field("active", &self.active_id)
            .field("policy", &self.policy.name())
            .field("switches", &self.switch_count())
            .finish_non_exhaustive()
    }
}

impl FusionBackend for AdaptiveBackend {
    fn ingest_dmu(&mut self, sample: &DmuSample) {
        with_active!(&mut self.active, e => e.on_dmu(sample));
    }

    fn ingest_acc(&mut self, sensor: usize, time_s: f64, z: Vec2) -> Option<KalmanUpdate> {
        assert_eq!(sensor, 0, "AdaptiveBackend fuses a single sensor");
        let update = with_active!(&mut self.active, e => e.on_acc(time_s, z));
        let saturations = self.total_saturations();
        let retunes = with_active!(&self.active, e => e.retunes().len() as u64);
        self.context
            .observe_acc(time_s, update.as_ref(), saturations, retunes);
        if self.context.decision_due() {
            let ctx = self.context.take_state();
            if let Some(target) = self.policy.decide(&ctx, self.active_id) {
                if target != self.active_id {
                    if self.admits(target) {
                        self.switch_to(target, &ctx);
                    } else {
                        self.vetoed_switches += 1;
                    }
                }
            }
        }
        update
    }

    fn current_estimate(&self) -> MisalignmentEstimate {
        with_active!(&self.active, e => e.estimate())
    }

    fn measurement_sigma(&self) -> f64 {
        with_active!(&self.active, e => e.current_measurement_sigma())
    }

    fn retunes(&self) -> &[Retune] {
        // The monitor is cloned across switches, so this history is
        // continuous over the whole session.
        with_active!(&self.active, e => e.retunes())
    }

    fn saturations(&self) -> u64 {
        self.total_saturations()
    }

    fn label(&self) -> &'static str {
        "iekf5/adaptive"
    }
}
