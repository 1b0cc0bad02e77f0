//! Deterministic list scheduling for mapped task graphs (paper §IV-B).
//!
//! The paper's `OptimizedMapping` "employs list scheduling for scheduling
//! tasks \[8\]". We use the classic priority list scheduler with *bottom
//! level* (downstream critical path) priority:
//!
//! * Tasks become ready when all predecessors have finished.
//! * Among ready tasks, the one with the longest downstream critical path
//!   is scheduled first, on the core the mapping assigns it to.
//! * Placement uses the *insertion* policy: a task may start inside an
//!   earlier idle gap of its core's timeline when it fits after the task's
//!   data-ready time. Without insertion, a high-priority task waiting on a
//!   predecessor leaves its core idle even when lower-priority ready work
//!   could run there, which systematically overestimates `TM` relative to
//!   the greedy event-driven dispatch measured by `sea-sim`.
//! * Communication `d_jk` is charged on the consumer core when producer and
//!   consumer sit on different cores (32-bit dedicated links, §II-A), so a
//!   core's busy time matches eq. (7): `T_i = Σ_j (t_j + Σ_k d_jk)`.
//!
//! Two execution models are supported (see `sea_taskgraph::ExecutionMode`):
//! one-shot **batch** execution, and **pipelined** streaming execution where
//! the whole-stream task costs are spread over `I` iterations and throughput
//! is limited by the busiest core; the multiprocessor execution time is
//! `fill + (I − 1) · period` with `period = max_i(work_i / f_i)`.
//!
//! [`list_schedule`] is the reference scheduler: `EvalContext::evaluate`
//! scores its schedules, and the hot-path `IncrementalEvaluator` replays
//! the same placement routine on a cached schedule and is checked against
//! it bit for bit.

use serde::{Deserialize, Serialize};

use sea_arch::{Architecture, CoreId, ScalingVector};
use sea_taskgraph::{Application, ExecutionMode, TaskGraphSoa, TaskId};

use crate::mapping::Mapping;
use crate::SchedError;

/// One scheduled execution of a task on a core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledTask {
    /// The task.
    pub task: TaskId,
    /// Start time in seconds (within one iteration for pipelined mode).
    pub start_s: f64,
    /// Finish time in seconds.
    pub finish_s: f64,
}

/// A complete schedule of one application mapping on an architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Per-core timelines, each sorted by start time.
    per_core: Vec<Vec<ScheduledTask>>,
    /// Multiprocessor execution time `TM` in seconds (eq. 6's quantity,
    /// measured on the schedule rather than estimated).
    makespan_s: f64,
    /// Busy seconds per core (computation + inbound cross-core
    /// communication), the wall-clock version of eq. (7)'s `T_i`.
    busy_s: Vec<f64>,
    /// Steady-state iteration period in seconds (pipelined mode only).
    period_s: Option<f64>,
}

impl Schedule {
    /// Per-core timelines in core order.
    #[must_use]
    pub fn per_core(&self) -> &[Vec<ScheduledTask>] {
        &self.per_core
    }

    /// Multiprocessor execution time in seconds.
    #[must_use]
    pub fn makespan_s(&self) -> f64 {
        self.makespan_s
    }

    /// Busy seconds of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn busy_s(&self, core: CoreId) -> f64 {
        self.busy_s[core.index()]
    }

    /// All per-core busy seconds.
    #[must_use]
    pub fn busy_per_core(&self) -> &[f64] {
        &self.busy_s
    }

    /// Steady-state period for pipelined execution, if applicable.
    #[must_use]
    pub fn period_s(&self) -> Option<f64> {
        self.period_s
    }

    /// Renders a proportional ASCII Gantt chart of the (fill) schedule.
    #[must_use]
    pub fn gantt(&self, width: usize) -> String {
        let mut out = String::new();
        let span = self
            .per_core
            .iter()
            .flatten()
            .map(|e| e.finish_s)
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        for (i, lane) in self.per_core.iter().enumerate() {
            out.push_str(&format!("{:>6} |", CoreId::new(i).to_string()));
            let mut row = vec![' '; width];
            for e in lane {
                let a = ((e.start_s / span) * width as f64).floor() as usize;
                let b = (((e.finish_s / span) * width as f64).ceil() as usize).min(width);
                let label: Vec<char> = e.task.to_string().chars().collect();
                for (k, slot) in row[a..b].iter_mut().enumerate() {
                    *slot = *label.get(k).unwrap_or(&'#');
                }
            }
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

/// List-schedules `app` under `mapping` and `scaling` on `arch`.
///
/// # Errors
///
/// Returns [`SchedError::ShapeMismatch`] if the mapping does not cover the
/// application's tasks or the architecture's cores.
pub fn list_schedule(
    app: &Application,
    arch: &Architecture,
    mapping: &Mapping,
    scaling: &ScalingVector,
) -> Result<Schedule, SchedError> {
    list_schedule_on(&TaskGraphSoa::new(app), app, arch, mapping, scaling)
}

/// [`list_schedule`] on a pre-built graph view `soa` of `app`: the one
/// reference scheduler. The incremental evaluator schedules its
/// cross-checks, its disabled mode and its full evaluations here, on the
/// view it shares, instead of rebuilding the view per call.
///
/// The visit sequence is the SoA's precomputed static order — highest
/// bottom level first, ties to the smaller task id — which depends only on
/// the graph (see [`TaskGraphSoa::schedule_order`]), so the per-step ready
/// list and priority scan of classic list scheduling disappear entirely.
pub(crate) fn list_schedule_on(
    soa: &TaskGraphSoa,
    app: &Application,
    arch: &Architecture,
    mapping: &Mapping,
    scaling: &ScalingVector,
) -> Result<Schedule, SchedError> {
    check_shapes(app, arch, mapping, scaling)?;
    let iterations = app.mode().iterations();
    let scale = 1.0 / f64::from(iterations);

    // Fill pass: one iteration's worth of work through the DAG, at the
    // effective throughput (cycles of useful work per second); the raw
    // clock stays with the electrical models (power, SEU exposure).
    let freq: Vec<f64> = arch
        .cores()
        .map(|c| arch.effective_frequency(c, scaling))
        .collect();
    let mut finish = vec![f64::NAN; soa.len()];
    let mut busy = vec![0.0f64; arch.n_cores()];
    let mut lanes = vec![Vec::new(); arch.n_cores()];
    for &t in soa.schedule_order() {
        place_task(
            soa,
            mapping,
            &freq,
            scale,
            t,
            &mut finish,
            &mut busy,
            &mut lanes,
        );
    }
    let fill = finish.iter().fold(0.0f64, |acc, &x| acc.max(x));

    match app.mode() {
        ExecutionMode::Batch => Ok(Schedule {
            per_core: lanes,
            makespan_s: fill,
            busy_s: busy,
            period_s: None,
        }),
        ExecutionMode::Pipelined { iterations } => {
            // Steady state: the busiest core bounds throughput.
            let period = busy.iter().fold(0.0f64, |acc, &b| acc.max(b));
            for b in &mut busy {
                *b *= f64::from(iterations);
            }
            Ok(Schedule {
                per_core: lanes,
                makespan_s: fill + period * f64::from(iterations - 1),
                busy_s: busy,
                period_s: Some(period),
            })
        }
    }
}

pub(crate) fn check_shapes(
    app: &Application,
    arch: &Architecture,
    mapping: &Mapping,
    scaling: &ScalingVector,
) -> Result<(), SchedError> {
    if mapping.n_tasks() != app.graph().len() {
        return Err(SchedError::ShapeMismatch {
            what: format!(
                "mapping covers {} tasks, application has {}",
                mapping.n_tasks(),
                app.graph().len()
            ),
        });
    }
    if mapping.n_cores() != arch.n_cores() {
        return Err(SchedError::ShapeMismatch {
            what: format!(
                "mapping targets {} cores, architecture has {}",
                mapping.n_cores(),
                arch.n_cores()
            ),
        });
    }
    if scaling.len() != arch.n_cores() {
        return Err(SchedError::ShapeMismatch {
            what: format!(
                "scaling vector covers {} cores, architecture has {}",
                scaling.len(),
                arch.n_cores()
            ),
        });
    }
    Ok(())
}

/// One task's computed placement, as produced by [`place_task`] (the
/// start and finish times land in the core's lane directly; the duration
/// is returned so the incremental cache can record it without
/// re-deriving it from `finish - start`, which rounds differently).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    pub(crate) dur_s: f64,
}

/// One task's duration in seconds on its mapped core: its computation
/// plus the inbound cross-core communication, which occupies the consumer
/// core (eq. 7 counts `d_jk` in `T_i`). A function of the mapping and the
/// per-core effective frequencies only — never of the schedule — shared by
/// [`place_task`] and the incremental evaluator's busy-time bound.
/// `each_pred` sees every predecessor index on the way, so `place_task`
/// finds the data-ready time in the same pass.
#[inline]
pub(crate) fn task_duration(
    soa: &TaskGraphSoa,
    mapping: &Mapping,
    freq: &[f64],
    scale: f64,
    t: TaskId,
    mut each_pred: impl FnMut(usize),
) -> f64 {
    let core = mapping.core_of(t);
    let mut comm_cycles = 0.0f64;
    for &(p, comm) in soa.predecessors(t) {
        each_pred(p as usize);
        if mapping.core_of(TaskId::new(p as usize)) != core {
            comm_cycles += comm * scale;
        }
    }
    (soa.wcec(t) * scale + comm_cycles) / freq[core.index()]
}

/// Places one task on its mapped core's timeline: computes the data-ready
/// time and [`task_duration`], finds the earliest insertion slot, and
/// records the placement into `finish`/`busy`/`lanes`.
///
/// This is the *single* placement routine shared by the reference
/// [`list_schedule`] and the incremental replay (`crate::incremental`), so
/// the two paths cannot drift bitwise: identical inputs run identical
/// float operations.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn place_task(
    soa: &TaskGraphSoa,
    mapping: &Mapping,
    freq: &[f64],
    scale: f64,
    t: TaskId,
    finish: &mut [f64],
    busy: &mut [f64],
    lanes: &mut [Vec<ScheduledTask>],
) -> Placement {
    let core = mapping.core_of(t);

    // Earliest data-ready time: all producers done.
    let mut ready_s = 0.0f64;
    let dur = task_duration(soa, mapping, freq, scale, t, |p| {
        ready_s = ready_s.max(finish[p]);
    });

    // Insertion placement: earliest slot on the core's timeline (an
    // inter-task gap or the tail) that starts at or after `ready_s`
    // and fits `dur`. The lane stays sorted by start time.
    let lane = &mut lanes[core.index()];
    let mut pos = lane.len();
    let mut start = ready_s;
    let mut cursor = 0.0f64;
    for (i, e) in lane.iter().enumerate() {
        let gap_start = cursor.max(ready_s);
        if gap_start + dur <= e.start_s {
            pos = i;
            start = gap_start;
            break;
        }
        cursor = e.finish_s;
    }
    if pos == lane.len() {
        start = cursor.max(ready_s);
    }
    let end = start + dur;
    finish[t.index()] = end;
    busy[core.index()] += dur;
    lane.insert(
        pos,
        ScheduledTask {
            task: t,
            start_s: start,
            finish_s: end,
        },
    );
    Placement { dur_s: dur }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_arch::LevelSet;
    use sea_taskgraph::graph::TaskGraphBuilder;
    use sea_taskgraph::registers::RegisterModelBuilder;
    use sea_taskgraph::units::{Bits, Cycles};

    fn arch(n: usize) -> Architecture {
        Architecture::homogeneous(n, LevelSet::arm7_three_level())
    }

    /// Two independent tasks of 200e6 cycles each + a join task.
    fn fork_join(mode: ExecutionMode) -> Application {
        let mut b = TaskGraphBuilder::new("forkjoin");
        let a = b.add_task("a", Cycles::new(200_000_000));
        let c = b.add_task("b", Cycles::new(200_000_000));
        let j = b.add_task("join", Cycles::new(200_000_000));
        b.add_edge(a, j, Cycles::new(20_000_000)).unwrap();
        b.add_edge(c, j, Cycles::new(20_000_000)).unwrap();
        let g = b.build().unwrap();
        let mut rm = RegisterModelBuilder::new(3);
        for i in 0..3 {
            let blk = rm.add_block(format!("p{i}"), Bits::new(1000));
            rm.assign(TaskId::new(i), blk).unwrap();
        }
        Application::new("forkjoin", g, rm.build(), mode, 100.0).unwrap()
    }

    #[test]
    fn parallel_mapping_beats_serial() {
        let app = fork_join(ExecutionMode::Batch);
        let arch = arch(2);
        let s = ScalingVector::all_nominal(&arch);
        let serial = Mapping::from_groups(&[&[0, 1, 2]], 2).unwrap();
        let parallel = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let sm = list_schedule(&app, &arch, &serial, &s).unwrap();
        let pm = list_schedule(&app, &arch, &parallel, &s).unwrap();
        assert!(pm.makespan_s() < sm.makespan_s());
        // Serial on one 200 MHz core: 600e6 cycles = 3 s, no comm.
        assert!((sm.makespan_s() - 3.0).abs() < 1e-9);
        // Parallel: a and b overlap (1 s), join waits for b's comm:
        // start = 1.0, duration = (200e6 + 20e6 cross-core comm)/200e6.
        assert!((pm.makespan_s() - 2.1).abs() < 1e-9);
    }

    #[test]
    fn cross_core_comm_charged_to_consumer() {
        let app = fork_join(ExecutionMode::Batch);
        let arch = arch(2);
        let s = ScalingVector::all_nominal(&arch);
        let parallel = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let sched = list_schedule(&app, &arch, &parallel, &s).unwrap();
        // Core 1 busy: a (1 s) + join (1 s + 0.1 s comm from b) = 2.1 s.
        assert!((sched.busy_s(CoreId::new(0)) - 2.1).abs() < 1e-9);
        // Core 2 busy: only b.
        assert!((sched.busy_s(CoreId::new(1)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn voltage_scaling_slows_execution() {
        let app = fork_join(ExecutionMode::Batch);
        let arch = arch(2);
        let nominal = ScalingVector::all_nominal(&arch);
        let lowest = ScalingVector::all_lowest(&arch);
        let m = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let fast = list_schedule(&app, &arch, &m, &nominal).unwrap();
        let slow = list_schedule(&app, &arch, &m, &lowest).unwrap();
        // s=3 runs at f/3: makespan scales by 3.
        assert!((slow.makespan_s() / fast.makespan_s() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn pipelined_throughput_bounded_by_busiest_core() {
        let app = fork_join(ExecutionMode::Pipelined { iterations: 100 });
        let arch = arch(2);
        let s = ScalingVector::all_nominal(&arch);
        let m = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let sched = list_schedule(&app, &arch, &m, &s).unwrap();
        // Per-iteration bottleneck: core 1 runs (200e6 + 200e6 + 20e6)/100
        // cycles = 4.2e6 cycles = 21 ms.
        let period = sched.period_s().unwrap();
        assert!((period - 0.021).abs() < 1e-9, "period {period}");
        // Makespan = fill + 99 * period and fill <= 2 * period.
        assert!(sched.makespan_s() > 99.0 * period);
        assert!(sched.makespan_s() < 101.0 * period + 0.1);
    }

    #[test]
    fn pipelined_busy_scales_with_iterations() {
        let app = fork_join(ExecutionMode::Pipelined { iterations: 10 });
        let arch = arch(2);
        let s = ScalingVector::all_nominal(&arch);
        let m = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let sched = list_schedule(&app, &arch, &m, &s).unwrap();
        // Core 2 runs task b ten times: 10 * 1e9/... = 10 * (200e6/10)/200e6 s each? No:
        // per-iteration cost = 200e6/10 cycles = 0.1 s; ten iterations = 1 s total.
        assert!((sched.busy_s(CoreId::new(1)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn precedence_respected_in_schedule() {
        let app = fork_join(ExecutionMode::Batch);
        let arch = arch(3);
        let s = ScalingVector::all_nominal(&arch);
        let m = Mapping::from_groups(&[&[0], &[1], &[2]], 3).unwrap();
        let sched = list_schedule(&app, &arch, &m, &s).unwrap();
        let find = |t: usize| {
            sched
                .per_core()
                .iter()
                .flatten()
                .find(|e| e.task == TaskId::new(t))
                .copied()
                .unwrap()
        };
        let join = find(2);
        assert!(join.start_s >= find(0).finish_s);
        assert!(join.start_s >= find(1).finish_s);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let app = fork_join(ExecutionMode::Batch);
        let a2 = arch(2);
        let a3 = arch(3);
        let s2 = ScalingVector::all_nominal(&a2);
        let m = Mapping::from_groups(&[&[0, 1, 2]], 3).unwrap();
        assert!(matches!(
            list_schedule(&app, &a2, &m, &s2).unwrap_err(),
            SchedError::ShapeMismatch { .. }
        ));
        let m2 = Mapping::from_groups(&[&[0, 1, 2]], 2).unwrap();
        assert!(matches!(
            list_schedule(&app, &a3, &m2, &s2).unwrap_err(),
            SchedError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn gantt_renders_every_core() {
        let app = fork_join(ExecutionMode::Batch);
        let arch = arch(2);
        let s = ScalingVector::all_nominal(&arch);
        let m = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let sched = list_schedule(&app, &arch, &m, &s).unwrap();
        let g = sched.gantt(60);
        assert_eq!(g.lines().count(), 2);
        assert!(g.contains("core1"));
        assert!(g.contains("core2"));
    }

    #[test]
    fn priority_prefers_critical_path() {
        // Chain head has larger bottom level than an independent task, so it
        // runs first when both are mapped on the same core.
        let mut b = TaskGraphBuilder::new("prio");
        let head = b.add_task("head", Cycles::new(100_000_000));
        let tail = b.add_task("tail", Cycles::new(400_000_000));
        let _solo = b.add_task("solo", Cycles::new(100_000_000));
        b.add_edge(head, tail, Cycles::ZERO).unwrap();
        let g = b.build().unwrap();
        let mut rm = RegisterModelBuilder::new(3);
        for i in 0..3 {
            let blk = rm.add_block(format!("p{i}"), Bits::new(8));
            rm.assign(TaskId::new(i), blk).unwrap();
        }
        let app = Application::new("prio", g, rm.build(), ExecutionMode::Batch, 10.0).unwrap();
        let arch = arch(2);
        let s = ScalingVector::all_nominal(&arch);
        let m = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let sched = list_schedule(&app, &arch, &m, &s).unwrap();
        let lane0 = &sched.per_core()[0];
        assert_eq!(lane0[0].task, TaskId::new(0), "head first");
        assert_eq!(lane0[1].task, TaskId::new(2));
    }
}
