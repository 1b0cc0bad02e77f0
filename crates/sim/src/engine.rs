//! Event-driven execution of a mapped application on the MPSoC.
//!
//! Unlike the list scheduler of `sea-sched` (which *estimates* timing for
//! the optimizer's inner loop), this engine *measures* it: cores are
//! event-driven agents that greedily dispatch their highest-priority ready
//! task instance whenever they fall idle. In pipelined mode every iteration
//! (video frame) is simulated individually, so pipeline fill, drain and
//! cross-iteration overlap emerge from the event dynamics rather than from
//! the `fill + (I−1)·period` closed form.

use serde::{Deserialize, Serialize};

use sea_arch::{Architecture, CoreId, ScalingVector};
use sea_sched::Mapping;
use sea_taskgraph::{Application, TaskId};

use crate::kernel::EventQueue;
use crate::SimError;

/// One executed task instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskEvent {
    /// The task.
    pub task: TaskId,
    /// Iteration (frame) index, 0-based; always 0 in batch mode.
    pub iteration: u32,
    /// Core that executed the instance.
    pub core: CoreId,
    /// Start time in seconds.
    pub start_s: f64,
    /// Finish time in seconds.
    pub finish_s: f64,
}

/// Measured outcome of one execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    /// Measured multiprocessor execution time in seconds.
    pub tm_seconds: f64,
    /// Busy seconds per core (computation + inbound cross-core comm).
    pub busy_s: Vec<f64>,
    /// Every executed task instance, in completion order.
    pub events: Vec<TaskEvent>,
    /// Iterations executed.
    pub iterations: u32,
}

impl ExecutionTrace {
    /// Utilization `α_i` of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn alpha(&self, core: CoreId) -> f64 {
        if self.tm_seconds > 0.0 {
            (self.busy_s[core.index()] / self.tm_seconds).min(1.0)
        } else {
            0.0
        }
    }
}

/// Identifies a task instance during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Instance {
    task: usize,
    iteration: u32,
}

/// Simulates the execution of `app` under `mapping` and `scaling`.
///
/// # Errors
///
/// Returns [`SimError::Sched`] when the mapping, application and
/// architecture shapes disagree.
pub fn simulate_execution(
    app: &Application,
    arch: &Architecture,
    mapping: &Mapping,
    scaling: &ScalingVector,
) -> Result<ExecutionTrace, SimError> {
    // Reuse the scheduler's shape validation by asking it for a schedule of
    // shapes only; cheaper to validate directly:
    if mapping.n_tasks() != app.graph().len() {
        return Err(SimError::Sched(sea_sched::SchedError::ShapeMismatch {
            what: format!(
                "mapping covers {} tasks, application has {}",
                mapping.n_tasks(),
                app.graph().len()
            ),
        }));
    }
    if mapping.n_cores() != arch.n_cores() || scaling.len() != arch.n_cores() {
        return Err(SimError::Sched(sea_sched::SchedError::ShapeMismatch {
            what: "core counts of mapping/scaling/architecture disagree".into(),
        }));
    }

    let g = app.graph();
    let n = g.len();
    let iterations = app.mode().iterations();
    let scale = 1.0 / f64::from(iterations);
    let bl = app.soa().bottom_levels();
    // Effective throughput; matches the list scheduler's timing model.
    let freq: Vec<f64> = arch
        .cores()
        .map(|c| arch.effective_frequency(c, scaling))
        .collect();

    // Per-instance predecessor counts, iteration-major layout.
    let idx = |inst: Instance| inst.iteration as usize * n + inst.task;
    let total = n * iterations as usize;
    let mut pending: Vec<u32> = Vec::with_capacity(total);
    for _ in 0..iterations {
        for t in g.task_ids() {
            pending.push(u32::try_from(g.predecessors(t).len()).expect("small graphs"));
        }
    }

    // Per-core ready pools.
    let mut ready: Vec<Vec<Instance>> = vec![Vec::new(); arch.n_cores()];
    for t in g.task_ids() {
        if g.predecessors(t).is_empty() {
            ready[mapping.core_of(t).index()].push(Instance {
                task: t.index(),
                iteration: 0,
            });
        }
    }

    #[derive(Debug)]
    enum Ev {
        Finished { core: usize, inst: Instance },
    }

    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut core_idle = vec![true; arch.n_cores()];
    let mut busy = vec![0.0f64; arch.n_cores()];
    let mut finish_time = vec![f64::NAN; total];
    let mut events: Vec<TaskEvent> = Vec::with_capacity(total);
    let mut completed = 0usize;
    let mut now = 0.0f64;

    // Dispatch helper: start the best ready instance on an idle core.
    // Priority: iteration asc (older frames drain first — anything else
    // lets an upstream core run hundreds of frames ahead and starve the
    // downstream cores), then bottom level desc, then task id asc.
    let pick =
        |pool: &mut Vec<Instance>, bl: &[sea_taskgraph::units::Cycles]| -> Option<Instance> {
            if pool.is_empty() {
                return None;
            }
            let mut best = 0usize;
            for i in 1..pool.len() {
                let a = pool[i];
                let b = pool[best];
                let key_a = (a.iteration, std::cmp::Reverse(bl[a.task]), a.task);
                let key_b = (b.iteration, std::cmp::Reverse(bl[b.task]), b.task);
                if key_a < key_b {
                    best = i;
                }
            }
            Some(pool.swap_remove(best))
        };

    loop {
        // Dispatch on every idle core with ready work.
        for c in 0..arch.n_cores() {
            if !core_idle[c] {
                continue;
            }
            if let Some(inst) = pick(&mut ready[c], bl) {
                let t = TaskId::new(inst.task);
                // Inbound cross-core communication occupies the consumer
                // core (eq. 7 counts d_jk in T_i).
                let mut comm_cycles = 0.0f64;
                for &(p, comm) in g.predecessors(t) {
                    if mapping.core_of(p).index() != c {
                        comm_cycles += comm.as_f64() * scale;
                    }
                }
                let dur = (g.task(t).computation().as_f64() * scale + comm_cycles) / freq[c];
                let end = now + dur;
                core_idle[c] = false;
                busy[c] += dur;
                events.push(TaskEvent {
                    task: t,
                    iteration: inst.iteration,
                    core: CoreId::new(c),
                    start_s: now,
                    finish_s: end,
                });
                queue.push(end, Ev::Finished { core: c, inst });
            }
        }

        match queue.pop() {
            None => break,
            Some((time, Ev::Finished { core, inst })) => {
                now = time;
                core_idle[core] = true;
                finish_time[idx(inst)] = time;
                completed += 1;

                // Same-iteration successors become ready.
                let t = TaskId::new(inst.task);
                for &(s, _) in g.successors(t) {
                    let succ = Instance {
                        task: s.index(),
                        iteration: inst.iteration,
                    };
                    pending[idx(succ)] -= 1;
                    if pending[idx(succ)] == 0 {
                        ready[mapping.core_of(s).index()].push(succ);
                    }
                }
                // Next iteration of a root task becomes ready once the
                // current instance completes (stream front advances).
                if g.predecessors(t).is_empty() && inst.iteration + 1 < iterations {
                    let next = Instance {
                        task: inst.task,
                        iteration: inst.iteration + 1,
                    };
                    ready[mapping.core_of(t).index()].push(next);
                }
                // Drain any other finish events at the same instant before
                // re-dispatching (handled naturally by the loop).
            }
        }
    }

    debug_assert_eq!(completed, total, "every instance must complete");
    let tm = events.iter().map(|e| e.finish_s).fold(0.0f64, f64::max);
    Ok(ExecutionTrace {
        tm_seconds: tm,
        busy_s: busy,
        events,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_arch::LevelSet;
    use sea_sched::schedule::list_schedule;
    use sea_taskgraph::graph::TaskGraphBuilder;
    use sea_taskgraph::registers::RegisterModelBuilder;
    use sea_taskgraph::units::{Bits, Cycles};
    use sea_taskgraph::ExecutionMode;

    fn arch(n: usize) -> Architecture {
        Architecture::homogeneous(n, LevelSet::arm7_three_level())
    }

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
    fn batch_matches_list_scheduler_exactly_on_simple_graph() {
        let app = fork_join(ExecutionMode::Batch);
        let arch = arch(2);
        let s = ScalingVector::all_nominal(&arch);
        let m = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let trace = simulate_execution(&app, &arch, &m, &s).unwrap();
        let sched = list_schedule(&app, &arch, &m, &s).unwrap();
        assert!((trace.tm_seconds - sched.makespan_s()).abs() < 1e-9);
        for c in 0..2 {
            assert!((trace.busy_s[c] - sched.busy_per_core()[c]).abs() < 1e-9);
        }
    }

    #[test]
    fn precedence_holds_for_every_event() {
        let app = fork_join(ExecutionMode::Batch);
        let arch = arch(3);
        let s = ScalingVector::all_nominal(&arch);
        let m = Mapping::from_groups(&[&[0], &[1], &[2]], 3).unwrap();
        let trace = simulate_execution(&app, &arch, &m, &s).unwrap();
        let find = |t: usize| {
            trace
                .events
                .iter()
                .find(|e| e.task == TaskId::new(t))
                .copied()
                .unwrap()
        };
        assert!(find(2).start_s >= find(0).finish_s - 1e-12);
        assert!(find(2).start_s >= find(1).finish_s - 1e-12);
    }

    #[test]
    fn pipelined_executes_every_instance() {
        let app = fork_join(ExecutionMode::Pipelined { iterations: 25 });
        let arch = arch(2);
        let s = ScalingVector::all_nominal(&arch);
        let m = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let trace = simulate_execution(&app, &arch, &m, &s).unwrap();
        assert_eq!(trace.events.len(), 3 * 25);
        assert_eq!(trace.iterations, 25);
    }

    #[test]
    fn pipelined_tm_close_to_scheduler_estimate() {
        let app = fork_join(ExecutionMode::Pipelined { iterations: 50 });
        let arch = arch(2);
        let s = ScalingVector::all_nominal(&arch);
        let m = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let trace = simulate_execution(&app, &arch, &m, &s).unwrap();
        let sched = list_schedule(&app, &arch, &m, &s).unwrap();
        let rel = (trace.tm_seconds - sched.makespan_s()).abs() / sched.makespan_s();
        assert!(
            rel < 0.05,
            "simulated {} vs estimated {}",
            trace.tm_seconds,
            sched.makespan_s()
        );
    }

    #[test]
    fn pipelined_overlaps_iterations() {
        // With the producer and consumer on different cores, the stream must
        // overlap: total time well below serial (no-overlap) execution.
        let mut b = TaskGraphBuilder::new("2stage");
        let p = b.add_task("p", Cycles::new(100_000_000));
        let q = b.add_task("q", Cycles::new(100_000_000));
        b.add_edge(p, q, Cycles::ZERO).unwrap();
        let g = b.build().unwrap();
        let mut rm = RegisterModelBuilder::new(2);
        for i in 0..2 {
            let blk = rm.add_block(format!("p{i}"), Bits::new(8));
            rm.assign(TaskId::new(i), blk).unwrap();
        }
        let app = Application::new(
            "2stage",
            g,
            rm.build(),
            ExecutionMode::Pipelined { iterations: 100 },
            100.0,
        )
        .unwrap();
        let arch = arch(2);
        let s = ScalingVector::all_nominal(&arch);
        let m = Mapping::from_groups(&[&[0], &[1]], 2).unwrap();
        let trace = simulate_execution(&app, &arch, &m, &s).unwrap();
        // Each stage instance: 1e6 cycles = 5 ms at 200 MHz. Serial: 1 s.
        // Pipelined: ~0.5 s + one fill stage.
        assert!(trace.tm_seconds < 0.6, "tm {}", trace.tm_seconds);
        assert!(trace.tm_seconds > 0.5, "tm {}", trace.tm_seconds);
    }

    #[test]
    fn alpha_reflects_idle_cores() {
        let app = fork_join(ExecutionMode::Batch);
        let arch = arch(2);
        let s = ScalingVector::all_nominal(&arch);
        let m = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let trace = simulate_execution(&app, &arch, &m, &s).unwrap();
        assert!(trace.alpha(CoreId::new(0)) > trace.alpha(CoreId::new(1)));
        assert!(trace.alpha(CoreId::new(1)) > 0.0);
    }

    #[test]
    fn rejects_shape_mismatch() {
        let app = fork_join(ExecutionMode::Batch);
        let a2 = arch(2);
        let s = ScalingVector::all_nominal(&a2);
        let m = Mapping::from_groups(&[&[0, 1, 2]], 3).unwrap();
        assert!(simulate_execution(&app, &a2, &m, &s).is_err());
    }

    #[test]
    fn mpeg2_pipelined_meets_deadline_on_proposed_design() {
        let app = sea_taskgraph::mpeg2::application();
        let arch = arch(4);
        let s = ScalingVector::try_new(vec![2, 2, 3, 2], &arch).unwrap();
        let m = Mapping::from_groups(&[&[0, 1, 2, 3, 4, 5], &[6, 7], &[8], &[9, 10]], 4).unwrap();
        let trace = simulate_execution(&app, &arch, &m, &s).unwrap();
        assert_eq!(trace.events.len(), 11 * 437);
        assert!(
            trace.tm_seconds <= app.deadline_s(),
            "proposed Table II design must be feasible: {} s vs {} s",
            trace.tm_seconds,
            app.deadline_s()
        );
    }
}
