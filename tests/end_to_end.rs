//! Cross-crate integration tests: the full flow from workload construction
//! through optimization to simulation and fault injection.

use sea_dse::arch::{Architecture, LevelSet, ScalingVector};
use sea_dse::baselines::{BaselineOptimizer, Objective};
use sea_dse::experiments::paper::Paper;
use sea_dse::experiments::{campaigns, EffortProfile};
use sea_dse::opt::{DesignOptimizer, OptimizerConfig};
use sea_dse::sched::metrics::EvalContext;
use sea_dse::sim::{simulate_design, SimConfig};
use sea_dse::taskgraph::generator::RandomGraphConfig;
use sea_dse::taskgraph::{fig8, mpeg2};

#[test]
fn optimize_then_simulate_mpeg2() {
    let app = mpeg2::application();
    let outcome = DesignOptimizer::new(OptimizerConfig::fast(4))
        .optimize(&app)
        .expect("four-core decoder is feasible");
    let best = &outcome.best;

    // The DES simulator must agree with the analytic evaluation the
    // optimizer used, and fault injection must cluster around Γ.
    let arch = DesignOptimizer::new(OptimizerConfig::fast(4))
        .config()
        .arch
        .clone();
    let report = simulate_design(
        &app,
        &arch,
        &best.mapping,
        &best.scaling,
        &SimConfig::seeded(1),
    )
    .expect("simulation runs");
    let tm_rel =
        (report.trace.tm_seconds - best.evaluation.tm_seconds).abs() / best.evaluation.tm_seconds;
    assert!(tm_rel < 0.05, "simulated vs scheduled TM deviates {tm_rel}");
    let mc_rel = (report.faults.total_experienced as f64 - best.evaluation.gamma).abs()
        / best.evaluation.gamma;
    assert!(mc_rel < 0.1, "MC vs analytic Γ deviates {mc_rel}");
}

#[test]
fn proposed_beats_parallelism_baseline_on_gamma_at_matched_scaling() {
    // The paper's headline claim, end-to-end through the public API.
    let app = mpeg2::application();
    let cfg = OptimizerConfig::fast(4);
    let proposed = DesignOptimizer::new(cfg.clone()).optimize(&app).unwrap();
    let baseline = BaselineOptimizer::new(cfg.clone(), Objective::Parallelism)
        .optimize(&app)
        .unwrap();

    // Evaluate both mappings at the proposed design's scaling.
    let ctx = EvalContext::new(&app, &cfg.arch);
    let e_prop = ctx
        .evaluate(&proposed.best.mapping, &proposed.best.scaling)
        .unwrap();
    let e_base = ctx
        .evaluate(&baseline.best.mapping, &proposed.best.scaling)
        .unwrap();
    assert!(
        e_prop.gamma < e_base.gamma,
        "proposed Γ {} must beat parallelism baseline Γ {}",
        e_prop.gamma,
        e_base.gamma
    );
}

#[test]
fn random_workload_end_to_end() {
    let app = RandomGraphConfig::paper(30).generate(11).unwrap();
    let outcome = DesignOptimizer::new(OptimizerConfig::fast(3))
        .optimize(&app)
        .expect("loose N/2-second deadline is feasible");
    assert!(outcome.best.evaluation.meets_deadline);
    assert!(outcome.best.mapping.uses_all_cores());

    let arch = Architecture::homogeneous(3, LevelSet::arm7_three_level());
    let report = simulate_design(
        &app,
        &arch,
        &outcome.best.mapping,
        &outcome.best.scaling,
        &SimConfig::seeded(5),
    )
    .expect("simulation runs");
    assert_eq!(
        report.trace.events.len(),
        30,
        "batch mode executes every task once"
    );
}

#[test]
fn fig8_walkthrough_end_to_end() {
    let app = fig8::application();
    let arch = Architecture::homogeneous(3, LevelSet::arm7_three_level());
    let ctx = EvalContext::new(&app, &arch);
    let scaling = ScalingVector::try_new(vec![1, 2, 2], &arch).unwrap();

    let initial = sea_dse::opt::initial::initial_sea_mapping(&ctx, &scaling).unwrap();
    let initial_eval = ctx.evaluate(&initial, &scaling).unwrap();
    let out = sea_dse::opt::optimized::optimized_mapping(
        &ctx,
        &scaling,
        initial.clone(),
        sea_dse::opt::SearchBudget::fast(),
        7,
    )
    .unwrap();

    // The walkthrough's defining property: the search never worsens the
    // seed, and the t1/t3 co-location survives ("selects t3").
    if initial_eval.meets_deadline {
        assert!(out.evaluation.gamma <= initial_eval.gamma);
    }
    assert!(out.mapping.uses_all_cores());
}

#[test]
fn deadline_sweep_changes_the_design() {
    // Tightening the deadline must push designs toward higher voltage
    // (more power) — the fundamental constraint of the whole paper.
    let app = mpeg2::application();
    let loose = DesignOptimizer::new(OptimizerConfig::fast(4))
        .optimize(&app)
        .unwrap();
    let tight_app = app.with_deadline(app.deadline_s() * 0.55).unwrap();
    let tight = DesignOptimizer::new(OptimizerConfig::fast(4))
        .optimize(&tight_app)
        .unwrap();
    assert!(
        tight.best.evaluation.power_mw >= loose.best.evaluation.power_mw,
        "tight {} mW vs loose {} mW",
        tight.best.evaluation.power_mw,
        loose.best.evaluation.power_mw
    );
}

#[test]
fn scaling_enumeration_is_consistent_with_architecture() {
    for cores in 2..=6 {
        let count = sea_dse::opt::ScalingIter::new(cores, 3).count() as u64;
        assert_eq!(
            count,
            sea_dse::opt::ScalingIter::count_combinations(cores, 3)
        );
    }
}

/// The whole `sea-dse reproduce smoke` report, byte for byte.
#[test]
fn paper_smoke_report_matches_its_golden() {
    let paper = Paper::new(EffortProfile::Smoke).unwrap();
    let results = campaigns::run(paper.units()).unwrap();
    assert_eq!(
        paper.render(&results).unwrap(),
        include_str!("golden/reproduce_smoke.txt")
    );
}
