//! Annealer fingerprints: the exact outcome of both annealing flows — the
//! proposed Fig. 7 search and the ref. [13] SA baselines, which share one
//! loop — on MPEG-2 and a 40-task random graph, at two scalings and two
//! seeds, plus one time-limited run per flow on a `StepClock`.
//!
//! Each line pins the best mapping, the evaluation count and the bits of
//! the returned `TM`, `Γ` and power. The golden reports print rounded
//! tables, so this is the suite that pins the RNG draw sequence, the
//! temperature schedule, the stop conditions and the best-design ordering
//! of each flow directly: any change to them changes a line here.

use std::time::Duration;

use sea_dse::arch::{Architecture, LevelSet, ScalingVector};
use sea_dse::baselines::sa::map_unconstrained;
use sea_dse::baselines::Objective;
use sea_dse::opt::clock::{Clock, StepClock, WallClock};
use sea_dse::opt::initial::initial_sea_mapping;
use sea_dse::opt::optimized::optimized_mapping_scratch;
use sea_dse::opt::{OptError, SearchBudget, SearchOutcome};
use sea_dse::sched::{EvalContext, IncrementalEvaluator};
use sea_dse::taskgraph::{AppSpec, Application, TaskId};

const SCALINGS: [[u8; 4]; 2] = [[2, 2, 3, 2], [1, 1, 2, 2]];
const SEEDS: [u64; 2] = [5, 11];
const OBJECTIVES: [Objective; 3] = [
    Objective::RegisterUsage,
    Objective::Parallelism,
    Objective::RegTimeProduct,
];

const EXPECTED: &[&str] = &[
    "proposed mpeg2 s=[2, 2, 3, 2] seed=5 evals=1932 tm=40197397adb48021 gamma=4103b1933da85676 power=4016feb42226632c map=00000331122",
    "sa:RegisterUsage mpeg2 s=[2, 2, 3, 2] seed=5 evals=2000 tm=4024f3f6e87f490a gamma=410c9d0aeb86ad9f power=400c853c6325c108 map=22201111333",
    "proposed mpeg2 s=[2, 2, 3, 2] seed=11 evals=1932 tm=4019abb81bee78f6 gamma=410323f98b3a8099 power=4016d351604a6087 map=33333002111",
    "sa:Parallelism mpeg2 s=[2, 2, 3, 2] seed=11 evals=2000 tm=40185bcbfad8482c gamma=41061b3e017f8d2d power=4018a2a2726e76c6 map=01100023131",
    "proposed mpeg2 s=[1, 1, 2, 2] seed=5 evals=1923 tm=400d3b99bd97a1b5 gamma=40f362ba1fde41d8 power=4038a2f8c36b255e map=00001113022",
    "sa:RegTimeProduct mpeg2 s=[1, 1, 2, 2] seed=5 evals=2000 tm=400d3b99bd97a1b5 gamma=40f362ba1fde41d8 power=4038a2f8c36b255e map=11110003122",
    "proposed mpeg2 s=[1, 1, 2, 2] seed=11 evals=1929 tm=400ccab3ea2931bf gamma=40f3a471b9d1d687 power=403918a556dc8ab0 map=13330002111",
    "sa:RegisterUsage mpeg2 s=[1, 1, 2, 2] seed=11 evals=2000 tm=401998c62529f7b5 gamma=4100097b84a0bf36 power=402a22e392d82dff map=33301111222",
    "proposed random:40 s=[2, 2, 3, 2] seed=5 evals=2000 tm=402523d70a3d70a4 gamma=4128346e317cdf3f power=4014b93cfe6f8682 map=1101031102132231303322002312132013113101",
    "sa:Parallelism random:40 s=[2, 2, 3, 2] seed=5 evals=2000 tm=4025d70a3d70a3d6 gamma=41297da1a39334a4 power=4014a30d065c87aa map=0033100322112332111133110300013000103120",
    "proposed random:40 s=[2, 2, 3, 2] seed=11 evals=2000 tm=40249d70a3d70a3d gamma=4126c40abbfe1466 power=4014cdf3f3c9fc84 map=0022202231013120321311101201031303000130",
    "sa:RegTimeProduct random:40 s=[2, 2, 3, 2] seed=11 evals=2000 tm=4026547ae147ae14 gamma=41292838f0c4f241 power=4013d44125ebdf67 map=3331221133302013330311010012031200311031",
    "proposed random:40 s=[1, 1, 2, 2] seed=5 evals=2000 tm=40197ae147ae147b gamma=41176bddf4395811 power=40366c69c0665a90 map=0001101110021310132130001200100311010011",
    "sa:RegisterUsage random:40 s=[1, 1, 2, 2] seed=5 evals=2000 tm=402e5851eb851eba gamma=412de26b4408312a power=401ac01d01c4f78a map=1111112121131211123022112322212221221222",
    "proposed random:40 s=[1, 1, 2, 2] seed=11 evals=2000 tm=401a400000000001 gamma=4118546ed0000001 power=4035e23964323030 map=1110210101011210111122001100012301000003",
    "sa:Parallelism random:40 s=[1, 1, 2, 2] seed=11 evals=2000 tm=4019d47ae147ae15 gamma=411a90ec478d4fdf power=4036426aac27f42f map=1103221303001030230212002313102111010101",
    "proposed mpeg2 step-clock 40 evals=39 tm=4019ad1288fc8232 gamma=41069dd63e1a0f00 power=4016d87301149596 map=20032203111",
    "sa:RegisterUsage mpeg2 step-clock 30 evals=29 tm=40138577337b2f44 gamma=40f76cb6f91660c7 power=40379e1929f6e197 map=33311220000",
];

/// One outcome as a line: the label, the evaluation count, the returned
/// evaluation's bits and the core of every task, in task order.
fn fingerprint(label: &str, out: Result<SearchOutcome, OptError>) -> String {
    let out = out.unwrap();
    let cores: String = (0..out.mapping.n_tasks())
        .map(|t| out.mapping.core_of(TaskId::new(t)).index().to_string())
        .collect();
    format!(
        "{label} evals={} tm={:016x} gamma={:016x} power={:016x} map={cores}",
        out.evaluations,
        out.evaluation.tm_seconds.to_bits(),
        out.evaluation.gamma.to_bits(),
        out.evaluation.power_mw.to_bits(),
    )
}

/// The proposed flow's search from its greedy Fig. 6 seed.
fn proposed(
    ctx: &EvalContext<'_>,
    scaling: &ScalingVector,
    budget: SearchBudget,
    seed: u64,
    clock: &dyn Clock,
) -> Result<SearchOutcome, OptError> {
    let initial = initial_sea_mapping(ctx, scaling)?;
    let mut ev = IncrementalEvaluator::new(ctx.clone());
    optimized_mapping_scratch(&mut ev, scaling, initial, budget, seed, clock)
}

fn workloads() -> Vec<(&'static str, Application)> {
    ["mpeg2", "random:40"]
        .into_iter()
        .map(|spec| (spec, spec.parse::<AppSpec>().unwrap().build().unwrap()))
        .collect()
}

fn fingerprints() -> Vec<String> {
    let arch = Architecture::homogeneous(4, LevelSet::arm7_three_level());
    let mut lines = Vec::new();
    let mut objectives = OBJECTIVES.iter().cycle();
    for (name, app) in workloads() {
        let ctx = EvalContext::new(&app, &arch);
        for raw in SCALINGS {
            let scaling = ScalingVector::try_new(raw.to_vec(), &arch).unwrap();
            for seed in SEEDS {
                let label = format!("{name} s={raw:?} seed={seed}");
                let clock = WallClock::start();
                let budget = SearchBudget::fast();
                let out = proposed(&ctx, &scaling, budget, seed, &clock);
                lines.push(fingerprint(&format!("proposed {label}"), out));
                let objective = *objectives.next().unwrap();
                let out = map_unconstrained(&ctx, &scaling, objective, budget, seed, &clock);
                lines.push(fingerprint(&format!("sa:{objective:?} {label}"), out));
            }
        }
    }

    // Time-limited budgets: each clock query advances a `StepClock` by one
    // step, so the runs stop after a fixed number of queries.
    let (_, mpeg2) = workloads().remove(0);
    let ctx = EvalContext::new(&mpeg2, &arch);
    let step = Duration::from_millis(1);
    let timed = |steps: u32| SearchBudget {
        max_evaluations: usize::MAX,
        max_stale_sweeps: usize::MAX,
        time_limit: Some(step * steps),
    };
    let scaling = ScalingVector::try_new(vec![2, 2, 3, 2], &arch).unwrap();
    let out = proposed(&ctx, &scaling, timed(40), 5, &StepClock::new(step));
    lines.push(fingerprint("proposed mpeg2 step-clock 40", out));
    let nominal = ScalingVector::all_nominal(&arch);
    let objective = Objective::RegisterUsage;
    let out = map_unconstrained(
        &ctx,
        &nominal,
        objective,
        timed(30),
        4,
        &StepClock::new(step),
    );
    lines.push(fingerprint("sa:RegisterUsage mpeg2 step-clock 30", out));
    lines
}

#[test]
fn both_flows_reproduce_their_fingerprints() {
    let actual = fingerprints();
    assert_eq!(
        actual,
        EXPECTED,
        "annealer outcomes changed; the run printed:\n{}",
        actual.join("\n")
    );
}
