//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use sea_dse::arch::{Architecture, CoreId, LevelSet, ScalingVector, SerModel};
use sea_dse::campaign::journal::{header_line, record_line};
use sea_dse::campaign::{
    decode_result, encode_result, json_record, parse_campaign, parse_journal, run_unit, unit_hash,
    units_hash, validate_entry, AppRef, BudgetSpec, ContentHasher, Unit, UnitKind, UnitRecord,
};
use sea_dse::opt::ScalingIter;
use sea_dse::opt::SelectionPolicy;
use sea_dse::sched::metrics::EvalContext;
use sea_dse::sched::Mapping;
use sea_dse::taskgraph::generator::RandomGraphConfig;
use sea_dse::taskgraph::graph::TaskGraphBuilder;
use sea_dse::taskgraph::registers::RegisterModelBuilder;
use sea_dse::taskgraph::units::{Bits, Cycles};
use sea_dse::taskgraph::AppSpec;
use sea_dse::taskgraph::{Application, ExecutionMode, TaskId};

/// Builds a random layered DAG application directly from proptest inputs.
fn arb_application() -> impl Strategy<Value = Application> {
    (4usize..24, any::<u64>()).prop_map(|(n, seed)| {
        RandomGraphConfig::paper(n)
            .generate(seed)
            .expect("generator accepts all paper-parameter sizes")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The list scheduler never violates task precedence, for any mapping
    /// and scaling.
    #[test]
    fn schedule_respects_precedence(
        app in arb_application(),
        raw_mapping in proptest::collection::vec(0usize..3, 24),
        s in 1u8..=3,
    ) {
        let arch = Architecture::homogeneous(3, LevelSet::arm7_three_level());
        let n = app.graph().len();
        let mapping = Mapping::try_new(
            raw_mapping[..n].iter().map(|&c| CoreId::new(c)).collect(),
            3,
        ).unwrap();
        let scaling = ScalingVector::uniform(s, &arch).unwrap();
        let ctx = EvalContext::new(&app, &arch);
        let schedule = ctx.schedule(&mapping, &scaling).unwrap();

        let mut finish = vec![0.0f64; n];
        let mut start = vec![0.0f64; n];
        for lane in schedule.per_core() {
            for e in lane {
                finish[e.task.index()] = e.finish_s;
                start[e.task.index()] = e.start_s;
            }
        }
        for e in app.graph().edges() {
            prop_assert!(
                start[e.dst.index()] >= finish[e.src.index()] - 1e-9,
                "edge {} -> {} violated",
                e.src,
                e.dst
            );
        }
    }

    /// Total register usage always equals the duplication identity:
    /// `Σ_i R_i = total_union + duplication(partition)` (eq. 8).
    #[test]
    fn register_usage_identity(
        app in arb_application(),
        raw_mapping in proptest::collection::vec(0usize..4, 24),
    ) {
        let n = app.graph().len();
        let mapping = Mapping::try_new(
            raw_mapping[..n].iter().map(|&c| CoreId::new(c)).collect(),
            4,
        ).unwrap();
        let m = app.registers();
        let groups: Vec<Vec<TaskId>> = mapping.groups();
        let per_core: Bits = groups.iter().map(|g| m.union_bits(g.iter().copied())).sum();
        // Note: tasks absent from a partition (none here) would break the
        // identity; mappings are always complete.
        prop_assert_eq!(per_core, m.total_union() + m.duplication_bits(&groups));
    }

    /// Γ is monotone: adding voltage scaling (higher coefficient) to every
    /// core never reduces expected SEUs at a fixed mapping.
    #[test]
    fn gamma_monotone_in_uniform_scaling(
        app in arb_application(),
        raw_mapping in proptest::collection::vec(0usize..2, 24),
    ) {
        let arch = Architecture::homogeneous(2, LevelSet::arm7_three_level());
        let n = app.graph().len();
        let mapping = Mapping::try_new(
            raw_mapping[..n].iter().map(|&c| CoreId::new(c)).collect(),
            2,
        ).unwrap();
        let ctx = EvalContext::new(&app, &arch);
        let mut last = 0.0f64;
        for s in 1..=3u8 {
            let scaling = ScalingVector::uniform(s, &arch).unwrap();
            let e = ctx.evaluate(&mapping, &scaling).unwrap();
            prop_assert!(e.gamma >= last, "Γ fell from {} to {} at s={}", last, e.gamma, s);
            last = e.gamma;
        }
    }

    /// The scaling enumeration yields exactly the multiset count, all
    /// non-increasing, all unique, for every (C, L) shape.
    #[test]
    fn scaling_iter_completeness(cores in 1usize..7, levels in 1usize..5) {
        let combos: Vec<Vec<u8>> = ScalingIter::new(cores, levels).collect();
        prop_assert_eq!(
            combos.len() as u64,
            ScalingIter::count_combinations(cores, levels)
        );
        for v in &combos {
            for w in v.windows(2) {
                prop_assert!(w[0] >= w[1]);
            }
            for &x in v {
                prop_assert!(x >= 1 && x as usize <= levels);
            }
        }
        let mut sorted = combos.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), combos.len());
    }

    /// The mapping-independent `TM` lower bound that drives the
    /// optimizer's chunk pruning never exceeds the scheduler's achieved
    /// makespan — for any random graph, any mapping, every scaling
    /// vector, in both execution modes. This is the soundness property
    /// that makes `tm_lower_bound(..) > deadline` a safe prune test.
    #[test]
    fn tm_lower_bound_never_exceeds_achieved_makespan(
        app in arb_application(),
        raw_mapping in proptest::collection::vec(0usize..3, 24),
        iterations in 1u32..6,
    ) {
        use sea_dse::sched::tm_lower_bound;

        let arch = Architecture::homogeneous(3, LevelSet::arm7_three_level());
        let n = app.graph().len();
        let mapping = Mapping::try_new(
            raw_mapping[..n].iter().map(|&c| CoreId::new(c)).collect(),
            3,
        ).unwrap();
        // Same graph both ways: batch as generated, pipelined rebuilt.
        let pipelined = Application::new(
            app.name(),
            app.graph().clone(),
            app.registers().clone(),
            ExecutionMode::Pipelined { iterations },
            app.deadline_s(),
        ).unwrap();
        for app in [&app, &pipelined] {
            let ctx = EvalContext::new(app, &arch);
            for raw in ScalingIter::new(3, 3) {
                let scaling = ScalingVector::try_new(raw, &arch).unwrap();
                let lb = tm_lower_bound(app, &arch, &scaling);
                let tm = ctx.evaluate(&mapping, &scaling).unwrap().tm_seconds;
                prop_assert!(
                    lb <= tm,
                    "bound {lb} exceeds achieved TM {tm} ({:?}, scaling {scaling})",
                    app.mode(),
                );
            }
        }
    }

    /// Applying a move and its inverse restores the mapping.
    #[test]
    fn moves_are_invertible(
        app in arb_application(),
        raw_mapping in proptest::collection::vec(0usize..3, 24),
        pick in any::<prop::sample::Index>(),
    ) {
        let n = app.graph().len();
        let original = Mapping::try_new(
            raw_mapping[..n].iter().map(|&c| CoreId::new(c)).collect(),
            3,
        ).unwrap();
        let moves = original.neighbourhood();
        prop_assume!(!moves.is_empty());
        let mv = moves[pick.index(moves.len())];
        let mut m = original.clone();
        let inv = m.apply(mv);
        prop_assert_ne!(&m, &original);
        m.apply(inv);
        prop_assert_eq!(m, original);
    }

    /// A random accept/reject walk through the delta evaluator yields
    /// summaries bitwise identical to a fresh full evaluation at every
    /// step, and so does relocating the first-visited task after it: the
    /// widest replay, from position 0.
    #[test]
    fn incremental_evaluator_is_bitwise_exact_on_random_walks(
        app in arb_application(),
        raw_mapping in proptest::collection::vec(0usize..3, 24),
        s in 1u8..=3,
        walk in proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<bool>()),
            1..16,
        ),
    ) {
        use sea_dse::sched::{summaries_bitwise_eq, IncrementalEvaluator, Move};

        let arch = Architecture::homogeneous(3, LevelSet::arm7_three_level());
        let n = app.graph().len();
        let mut current = Mapping::try_new(
            raw_mapping[..n].iter().map(|&c| CoreId::new(c)).collect(),
            3,
        ).unwrap();
        let scaling = ScalingVector::uniform(s, &arch).unwrap();
        let ctx = EvalContext::new(&app, &arch);
        let mut inc = IncrementalEvaluator::new(ctx.clone());

        let primed = inc.prime(&current, &scaling).unwrap();
        prop_assert!(summaries_bitwise_eq(
            &primed,
            &ctx.evaluate(&current, &scaling).unwrap().summary()
        ));

        for (pick, accept) in walk {
            let len = current.neighbourhood_len();
            if len == 0 {
                break;
            }
            let mv = current.nth_neighbourhood_move(pick.index(len)).unwrap();
            let inverse = current.apply(mv);
            let got = inc.evaluate_move(&current, &scaling, mv, None).unwrap().unwrap();
            let want = ctx.evaluate(&current, &scaling).unwrap().summary();
            prop_assert!(
                summaries_bitwise_eq(&got, &want),
                "walk diverged on {}: {:?} vs {:?}",
                mv, got, want
            );
            if accept {
                inc.accept();
            } else {
                inc.reject();
                current.apply(inverse);
            }
        }

        // The widest replay: relocating the first-visited task replays
        // the move's cone from position 0 against the committed base.
        let task = inc.soa().schedule_order()[0];
        let to = CoreId::new((current.core_of(task).index() + 1) % 3);
        let mv = Move::Relocate { task, to };
        let before = inc.stats();
        current.apply(mv);
        let got = inc.evaluate_move(&current, &scaling, mv, None).unwrap().unwrap();
        let want = ctx.evaluate(&current, &scaling).unwrap().summary();
        prop_assert!(
            summaries_bitwise_eq(&got, &want),
            "first-task relocation diverged on {}: {:?} vs {:?}",
            mv, got, want
        );
        prop_assert_eq!(inc.stats().incremental - before.incremental, 1);
    }

    /// Early rejection is exact. On random batch graphs and the pipelined
    /// MPEG-2 decoder, under deadlines straddling the makespan (so the
    /// penalty jump is crossed), for every annealer score shape with and
    /// without the deadline penalty, current scores around the
    /// candidate's true score, temperatures down to the 1e-12 clamp and
    /// draws of 0 and just below 1: every "rejected" answer agrees with
    /// the full evaluation's decision for the same draw, every returned
    /// summary is bitwise the full path's (also right after a rejection),
    /// and the busy-only exposure policy never rejects early.
    #[test]
    fn early_rejection_agrees_with_the_full_decision(
        graph in (any::<bool>(), arb_application()),
        raw_mapping in proptest::collection::vec(0usize..4, 24),
        s in 1u8..=3,
        deadline_scale in 0.7f64..1.3,
        walk in proptest::collection::vec(
            (any::<prop::sample::Index>(), 0usize..7, -0.4f64..0.4, 0usize..4, 0.0f64..1.0),
            1..24,
        ),
    ) {
        use sea_dse::baselines::Objective;
        use sea_dse::opt::optimized::{deadline_penalty_factor, Acceptance};
        use sea_dse::sched::metrics::{EvalSummary, ExposurePolicy};
        use sea_dse::sched::{summaries_bitwise_eq, IncrementalEvaluator, RejectionTest};
        use sea_dse::taskgraph::mpeg2;

        let (use_mpeg2, random) = graph;
        let base = if use_mpeg2 { mpeg2::application() } else { random };
        let arch = Architecture::homogeneous(4, LevelSet::arm7_three_level());
        let n = base.graph().len();
        let mut current = Mapping::try_new(
            raw_mapping[..n].iter().map(|&c| CoreId::new(c)).collect(),
            4,
        ).unwrap();
        let scaling = ScalingVector::uniform(s, &arch).unwrap();
        let tm0 = EvalContext::new(&base, &arch).evaluate(&current, &scaling).unwrap().tm_seconds;
        let app = base.with_deadline(tm0 * deadline_scale).unwrap();
        let deadline = app.deadline_s();

        let ctx = EvalContext::new(&app, &arch);
        let busy_ctx = ctx.clone().with_exposure(ExposurePolicy::BusyOnly);
        let mut inc = IncrementalEvaluator::new(ctx.clone());
        let mut busy = IncrementalEvaluator::new(busy_ctx.clone());
        inc.prime(&current, &scaling).unwrap();
        busy.prime(&current, &scaling).unwrap();

        let objectives = [
            Objective::RegisterUsage,
            Objective::Parallelism,
            Objective::RegTimeProduct,
        ];
        for (pick, shape, offset, t_pick, u) in walk {
            let len = current.neighbourhood_len();
            if len == 0 {
                break;
            }
            let mv = current.nth_neighbourhood_move(pick.index(len)).unwrap();
            let inverse = current.apply(mv);
            let want = ctx.evaluate(&current, &scaling).unwrap().summary();

            // Shape 0 is the proposed flow's penalized Γ; 1–3 the
            // baselines' objectives with the penalty, 4–6 without.
            let score = move |eval: &EvalSummary| match shape {
                0 => eval.gamma * deadline_penalty_factor(eval, deadline),
                1..=3 => objectives[shape - 1].penalized_summary(eval, deadline),
                _ => objectives[shape - 4].score_summary(eval),
            };
            let rule = Acceptance::new(score);
            let true_score = rule.score(&want);
            let current_score = if offset.abs() < 0.05 {
                true_score
            } else {
                true_score * (1.0 + offset)
            };
            let temperature = [0.1, 1e-3, 1e-12, 1e-300][t_pick];
            let draw = if u < 0.1 {
                0.0
            } else if u > 0.9 {
                1.0 - f64::EPSILON / 2.0
            } else {
                u
            };
            let step = rule.at(current_score, temperature, draw);

            let rejected = match inc.evaluate_move(&current, &scaling, mv, Some(&step)).unwrap() {
                None => {
                    prop_assert!(
                        step.rejects(&want),
                        "{} rejected early but the full decision accepts {:?}",
                        mv, want
                    );
                    true
                }
                Some(got) => {
                    prop_assert!(
                        summaries_bitwise_eq(&got, &want),
                        "summary diverged on {}: {:?} vs {:?}",
                        mv, got, want
                    );
                    step.rejects(&got)
                }
            };
            let busy_got = busy.evaluate_move(&current, &scaling, mv, Some(&step)).unwrap();
            prop_assert!(busy_got.is_some(), "busy-only exposure rejected {} early", mv);
            prop_assert!(summaries_bitwise_eq(
                &busy_got.unwrap(),
                &busy_ctx.evaluate(&current, &scaling).unwrap().summary()
            ));
            if rejected {
                inc.reject();
                busy.reject();
                current.apply(inverse);
            } else {
                inc.accept();
                busy.accept();
            }
        }
        let stats = busy.stats();
        prop_assert_eq!(stats.rejected_before_replay + stats.rejected_during_replay, 0);
    }

    /// The SER model is multiplicative in λ_ref and decreasing in Vdd.
    #[test]
    fn ser_model_properties(
        lambda_exp in -12.0f64..-6.0,
        v in 0.3f64..1.3,
        dv in 0.01f64..0.3,
    ) {
        let l1 = SerModel::calibrated(10f64.powf(lambda_exp));
        let l10 = SerModel::calibrated(10f64.powf(lambda_exp + 1.0));
        prop_assert!((l10.lambda(v) / l1.lambda(v) - 10.0).abs() < 1e-6);
        prop_assert!(l1.lambda(v - dv) > l1.lambda(v));
    }

    /// Unit hashes are injective over near-identical units: flipping any
    /// single content field produces a distinct hash, while presentation
    /// fields (index, scenario) never matter.
    #[test]
    fn unit_hash_separates_every_content_field(
        cores in 2usize..6,
        levels in 2usize..5,
        seed in any::<u64>(),
        budget_pick in 0usize..4,
        index in any::<usize>(),
    ) {
        let budgets = [
            BudgetSpec::Fast,
            BudgetSpec::Smoke,
            BudgetSpec::Paper,
            BudgetSpec::Thorough,
        ];
        let base = Unit {
            index,
            scenario: "prop".into(),
            kind: UnitKind::Optimize,
            app: AppRef::Spec(AppSpec::Mpeg2),
            cores,
            levels,
            budget: budgets[budget_pick],
            selection: SelectionPolicy::PowerGammaProduct,
            seed,
        };
        let h0 = unit_hash(&base);

        // Presentation fields are hash-transparent.
        let mut relabeled = base.clone();
        relabeled.index = index.wrapping_add(17);
        relabeled.scenario = "other".into();
        prop_assert_eq!(h0, unit_hash(&relabeled));

        // One-field flips: every variant hashes apart from the base and
        // from each other.
        let variants: Vec<Unit> = vec![
            { let mut u = base.clone(); u.cores += 1; u },
            { let mut u = base.clone(); u.levels = if levels == 4 { 2 } else { levels + 1 }; u },
            { let mut u = base.clone(); u.seed = seed.wrapping_add(1); u },
            { let mut u = base.clone(); u.budget = budgets[(budget_pick + 1) % 4]; u },
            { let mut u = base.clone(); u.selection = SelectionPolicy::GammaFirst; u },
            { let mut u = base.clone(); u.app = AppRef::Spec(AppSpec::Fig8); u },
            { let mut u = base.clone(); u.app = AppRef::Spec(AppSpec::Random { tasks: 20, seed }); u },
            { let mut u = base.clone(); u.kind = UnitKind::Sweep { count: 100, scale: 1 }; u },
            { let mut u = base.clone(); u.kind = UnitKind::Sweep { count: 100, scale: 2 }; u },
        ];
        let mut seen = vec![h0];
        for v in &variants {
            let h = unit_hash(v);
            prop_assert!(!seen.contains(&h), "hash collision for {:?}", v);
            seen.push(h);
        }
    }

    /// Spec parse → expand → hash is a pure function of the source text:
    /// re-parsing randomized grammar inputs reproduces the identical unit
    /// list hash, and every unit hash is stable under re-hashing.
    #[test]
    fn spec_parse_expand_hash_is_deterministic(
        base_seed in any::<u64>(),
        lo in 2usize..4,
        span in 0usize..3,
        app_pick in 0usize..3,
        budget_pick in 0usize..4,
        explicit_seeds in proptest::collection::vec(any::<u64>(), 0..3),
        kind_pick in 0usize..3,
    ) {
        let apps = ["mpeg2", "fig8", "mpeg2, random:15:9"][app_pick];
        let budget = ["fast", "smoke", "paper", "thorough"][budget_pick];
        let kind = ["optimize", "baseline", "sweep"][kind_pick];
        let mut scenario = format!("[scenario]\nkind = \"{kind}\"\napps = \"{apps}\"\ncores = \"{lo}-{}\"\n", lo + span);
        if kind == "baseline" {
            scenario.push_str("objectives = \"tm,tmr\"\n");
        }
        if kind == "sweep" {
            scenario.push_str("count = 7\nscales = \"1,2\"\n");
        }
        if !explicit_seeds.is_empty() {
            let list: Vec<String> = explicit_seeds.iter().map(u64::to_string).collect();
            scenario.push_str(&format!("seeds = \"{}\"\n", list.join(",")));
        }
        let source = format!("name = \"prop\"\nbudget = \"{budget}\"\nseed = {base_seed}\n{scenario}");

        let a = parse_campaign(&source).expect("generated spec parses").expand();
        let b = parse_campaign(&source).expect("generated spec parses").expand();
        prop_assert!(!a.is_empty());
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(units_hash(&a), units_hash(&b));
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(unit_hash(x), unit_hash(y));
            prop_assert_eq!(unit_hash(x), unit_hash(x), "re-hash is stable");
        }
    }

    /// Journal records survive a serialize → parse → serialize round trip
    /// byte-identically, for adversarial strings and float values.
    #[test]
    fn journal_records_round_trip_byte_identical(
        index in any::<usize>(),
        scenario_bytes in proptest::collection::vec(0u8..128, 0..12),
        cores in 1usize..9,
        levels in 2usize..5,
        seed in any::<u64>(),
        status_pick in 0usize..3,
        power in proptest::option::of(-1.0e12f64..1.0e12),
        gamma_mant in proptest::option::of(1u64..u64::MAX),
        evaluations in proptest::option::of(any::<usize>()),
        mapping in proptest::option::of(proptest::collection::vec(0u8..128, 0..16)),
        seus in proptest::option::of(any::<u64>()),
    ) {
        let to_string = |bytes: &[u8]| -> String {
            bytes
                .iter()
                .map(|&b| char::from(b))
                .filter(|c| *c != '\u{0}')
                .collect()
        };
        // Drive odd-but-finite float bit patterns through the gamma slot.
        let gamma = gamma_mant.map(|bits| {
            let v = f64::from_bits(bits);
            if v.is_finite() { v } else { f64::from_bits(bits >> 12) }
        });
        let record = UnitRecord {
            index,
            scenario: to_string(&scenario_bytes),
            kind: "optimize".into(),
            app: "mpeg2".into(),
            cores,
            levels,
            seed,
            status: ["ok", "infeasible", "too-few-tasks"][status_pick],
            power_mw: power,
            gamma,
            tm_seconds: None,
            r_kbits: Some(0.1 + cores as f64),
            evaluations,
            scaling: None,
            mapping: mapping.as_deref().map(to_string),
            experienced_seus: seus,
        };
        let line = json_record(&record);
        let parsed = sea_dse::campaign::journal::parse_record_json(&line)
            .unwrap_or_else(|e| panic!("parse failed: {e} for {line}"));
        prop_assert_eq!(json_record(&parsed), line);
    }

    /// Pipelined makespan is bounded below by the busiest core's total
    /// work and above by fully serial execution.
    #[test]
    fn pipelined_makespan_bounds(
        iterations in 1u32..40,
        costs in proptest::collection::vec(1u64..50, 2..8),
    ) {
        let mut b = TaskGraphBuilder::new("chain");
        let ids: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| b.add_task(format!("t{i}"), Cycles::new(c * 1_000_000)))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], Cycles::ZERO).unwrap();
        }
        let g = b.build().unwrap();
        let mut rm = RegisterModelBuilder::new(ids.len());
        for (i, id) in ids.iter().enumerate() {
            let blk = rm.add_block(format!("p{i}"), Bits::new(100));
            rm.assign(*id, blk).unwrap();
        }
        let app = Application::new(
            "chain",
            g,
            rm.build(),
            ExecutionMode::Pipelined { iterations },
            1e9,
        ).unwrap();
        let arch = Architecture::homogeneous(2, LevelSet::arm7_three_level());
        let ctx = EvalContext::new(&app, &arch);
        // Alternate tasks across the two cores.
        let mapping = Mapping::try_new(
            (0..ids.len()).map(|i| CoreId::new(i % 2)).collect(),
            2,
        ).unwrap();
        let scaling = ScalingVector::all_nominal(&arch);
        let sched = ctx.schedule(&mapping, &scaling).unwrap();

        let f = 200e6;
        let total: u64 = costs.iter().map(|c| c * 1_000_000).sum();
        let serial = total as f64 / f;
        let core_work = |c: usize| -> f64 {
            costs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == c)
                .map(|(_, &x)| (x * 1_000_000) as f64)
                .sum::<f64>()
                / f
        };
        let busiest = core_work(0).max(core_work(1));
        prop_assert!(sched.makespan_s() >= busiest - 1e-9);
        // Fully serial with no overlap would be `serial` per iteration...
        // the pipeline must do no worse than that plus one fill pass.
        prop_assert!(sched.makespan_s() <= serial * f64::from(iterations) + serial + 1e-9);
    }
}

/// Valid cache entries of every payload kind with their units, and a
/// journal of their records: what the parser fuzzer mutates.
fn fuzz_fixtures() -> &'static (Vec<(Unit, String)>, String) {
    static FIXTURES: std::sync::OnceLock<(Vec<(Unit, String)>, String)> =
        std::sync::OnceLock::new();
    FIXTURES.get_or_init(|| {
        let design = Unit {
            index: 0,
            scenario: "fuzz \"q\"".into(),
            kind: UnitKind::Optimize,
            app: AppRef::Spec(AppSpec::Mpeg2),
            cores: 4,
            levels: 2,
            budget: BudgetSpec::Smoke,
            selection: SelectionPolicy::PowerGammaProduct,
            seed: 3,
        };
        let units = [
            design.clone(),
            // Deadline-infeasible under the paper calibration.
            Unit {
                app: AppRef::Spec(AppSpec::Fig8),
                cores: 3,
                ..design.clone()
            },
            Unit {
                kind: UnitKind::Sweep { count: 2, scale: 1 },
                ..design.clone()
            },
            Unit {
                kind: UnitKind::Simulate {
                    scaling: vec![2, 2, 2, 2],
                    groups: vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7], vec![8], vec![9, 10]],
                    ser: sea_dse::arch::ser::PAPER_SER,
                },
                ..design
            },
        ];
        let mut journal = header_line("fuzz", units_hash(&units), units.len());
        let mut entries = Vec::new();
        for (index, unit) in units.into_iter().enumerate() {
            let unit = Unit { index, ..unit };
            let result = run_unit(&unit).expect("fixture unit runs");
            journal.push('\n');
            journal.push_str(&record_line(index, unit_hash(&unit), &result.record));
            entries.push((unit, encode_result(&result)));
        }
        journal.push('\n');
        (entries, journal)
    })
}

/// Byte ranges of the tokens of `bytes`: runs between whitespace and
/// JSON punctuation.
fn token_ranges(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let separator = |b: u8| b.is_ascii_whitespace() || b",:{}\"".contains(&b);
    let mut ranges = Vec::new();
    let mut start = None;
    for (i, &b) in bytes.iter().enumerate().chain([(bytes.len(), &b' ')]) {
        match (separator(b), start) {
            (true, Some(s)) => {
                ranges.push(s..i);
                start = None;
            }
            (false, None) => start = Some(i),
            _ => {}
        }
    }
    ranges
}

/// Applies byte and token edits `(op, position, value)` to `source`:
/// overwrite, insert or delete a byte; replace a decimal token with a
/// count a decoder once reserved memory for; or replace any token with a
/// JSON or escape fragment.
fn mutate(source: &str, edits: &[(u8, usize, u8)]) -> String {
    const COUNTS: [&str; 2] = ["18446744073709551615", "4000000000000"];
    const FRAGMENTS: [&str; 10] = [
        "", "-1", "null", "{", "}", "\"", "\\", "\\u", "\\ud800", "{}",
    ];
    let mut bytes = source.as_bytes().to_vec();
    for &(op, at, value) in edits {
        let at = at % (bytes.len() + 1);
        let tokens = token_ranges(&bytes);
        let decimal: Vec<_> = tokens
            .iter()
            .filter(|r| bytes[(*r).clone()].iter().all(u8::is_ascii_digit))
            .cloned()
            .collect();
        match op % 5 {
            0 if at < bytes.len() => bytes[at] = value,
            1 => bytes.insert(at, value),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 if !decimal.is_empty() => {
                let count = COUNTS[usize::from(value) % COUNTS.len()];
                bytes.splice(decimal[at % decimal.len()].clone(), count.bytes());
            }
            4 if !tokens.is_empty() => {
                let fragment = FRAGMENTS[usize::from(value) % FRAGMENTS.len()];
                bytes.splice(tokens[at % tokens.len()].clone(), fragment.bytes());
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `entry` with its checksum line recomputed over everything before it,
/// so an edit reaches the parsers behind the checksum.
fn reseal(entry: &str) -> String {
    let Some(end) = entry.rfind("\nend ") else {
        return entry.to_string();
    };
    let prefix = &entry[..=end];
    let mut sum = ContentHasher::new();
    sum.write(prefix.as_bytes());
    format!("{prefix}end {}\n", sum.finish().to_hex())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Mutated cache entries, resealed, and mutated journals are values
    /// or errors, never panics or unbounded allocations.
    #[test]
    fn mutated_entries_and_journals_are_values_or_errors(
        pick in 0usize..4,
        edits in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..5),
    ) {
        let (entries, journal) = fuzz_fixtures();
        let (unit, entry) = &entries[pick];
        prop_assert!(decode_result(&reseal(entry), unit).is_ok());
        let mutated = reseal(&mutate(entry, &edits));
        let _ = validate_entry(&mutated, None);
        let _ = validate_entry(&mutated, Some(unit_hash(unit)));
        let _ = decode_result(&mutated, unit);
        prop_assert!(parse_journal(journal).is_ok());
        let _ = parse_journal(&mutate(journal, &edits));
    }
}

/// Golden hex fixtures: unit and spec hashes must be *stable across
/// process runs and builds* — journals and cache entries written by one
/// binary must be readable by the next. A failure here means the
/// canonical unit encoding changed; if that change is intentional, bump
/// `ENCODING_VERSION` in `crates/campaign/src/unit.rs` and the cache,
/// journal and wire versions so stale artifacts are refused, and
/// regenerate these constants (each is FNV-1a-128 over the encoding's
/// version and content tokens, as `unit.rs` tests check).
#[test]
fn content_hashes_match_golden_fixtures() {
    let optimize = Unit {
        index: 0,
        scenario: "golden".into(),
        kind: UnitKind::Optimize,
        app: AppRef::Spec(AppSpec::Mpeg2),
        cores: 4,
        levels: 3,
        budget: BudgetSpec::Smoke,
        selection: SelectionPolicy::PowerGammaProduct,
        seed: 6_204_766,
    };
    assert_eq!(
        unit_hash(&optimize).to_hex(),
        "dafbaeaa49a8c6d9d17613c8b81383c0"
    );

    let mut simulate = optimize.clone();
    simulate.kind = UnitKind::Simulate {
        scaling: vec![2, 2, 3, 2],
        groups: vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7], vec![8], vec![9, 10]],
        ser: sea_dse::arch::ser::PAPER_SER,
    };
    simulate.seed = 13;
    assert_eq!(
        unit_hash(&simulate).to_hex(),
        "7bac96d5cf697a4631fc6c0888ff0888"
    );

    // Inline applications hash by *content*, pinned independently of the
    // spec-string form.
    let mut inline = optimize.clone();
    inline.app = AppRef::Inline(std::sync::Arc::new(AppSpec::Mpeg2.build().unwrap()));
    assert_eq!(
        unit_hash(&inline).to_hex(),
        "b835f632d3fed88079d0f84bcce29ce0"
    );

    // The quickstart builtin's spec hash — the value a resume journal
    // header stores for `sea-dse campaign --builtin quickstart`.
    let quickstart = parse_campaign(
        sea_dse::experiments::campaigns::builtin("quickstart")
            .expect("builtin exists")
            .source,
    )
    .expect("builtin parses")
    .expand();
    assert_eq!(
        units_hash(&quickstart).to_hex(),
        "60134948e9e250f32e85b7144864b8b2"
    );
}
