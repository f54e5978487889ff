//! Cross-crate integration tests: the full co-design pipeline from dataset to
//! simulated accelerator, checked for functional correctness (recall) and
//! model consistency.

use std::sync::OnceLock;

use fanns::framework::{Fanns, FannsRequest, GeneratedAccelerator};
use fanns_codegen::emit::emit_kernel_plan;
use fanns_codegen::plan::instantiate;
use fanns_dataset::ground_truth::ground_truth;
use fanns_dataset::recall::recall_at_k;
use fanns_dataset::synth::SyntheticSpec;

type Workload = (
    fanns_dataset::types::VectorDataset,
    fanns_dataset::types::QuerySet,
);

/// The dataset every test searches, generated once.
fn workload() -> &'static Workload {
    static WORKLOAD: OnceLock<Workload> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        SyntheticSpec::sift_medium(1234)
            .with_vectors(8_000)
            .with_queries(64)
            .generate()
    })
}

fn test_request(k: usize, goal: f64) -> FannsRequest {
    let mut request = FannsRequest::recall_goal(k, goal);
    request.explorer.nlist_grid = vec![32, 64];
    request.explorer.train_sample = 8_000;
    request
}

/// The co-design for (k = 10, recall goal 0.5), run once and shared by the
/// three tests that inspect that one generated design.
fn design_at_half_recall() -> &'static GeneratedAccelerator {
    static DESIGN: OnceLock<GeneratedAccelerator> = OnceLock::new();
    DESIGN.get_or_init(|| {
        let (db, queries) = workload();
        Fanns::new(test_request(10, 0.5))
            .run(db, queries)
            .expect("co-design should find a feasible combination")
    })
}

#[test]
fn full_workflow_meets_the_recall_goal_on_the_accelerator() {
    let (db, queries) = workload();
    let goal = 0.6;
    let generated = Fanns::new(test_request(10, goal))
        .run(db, queries)
        .expect("co-design should find a feasible combination");

    // The accelerator's own results (hardware-functional stages share the
    // arithmetic with the CPU reference) must meet the recall goal.
    let gt = ground_truth(db, queries, 10);
    let accelerator = instantiate(&generated.plan, &generated.index).unwrap();
    let results: Vec<Vec<usize>> = (0..queries.len())
        .map(|q| {
            accelerator
                .simulate_query_fast(queries.get(q))
                .results
                .iter()
                .map(|r| r.id as usize)
                .collect()
        })
        .collect();
    let recall = recall_at_k(&results, &gt, 10);
    assert!(
        recall.recall_at_k + 1e-9 >= goal,
        "deployed recall {:.3} misses the goal {goal}",
        recall.recall_at_k
    );
}

#[test]
fn simulated_qps_is_close_to_the_model_prediction() {
    // §7.3.1: measured QPS reaches 86.9–99.4% of the predicted QPS. In the
    // simulator the only divergence is per-query workload variation around
    // the expected scan count, so the two should agree within ~30%.
    let (_, queries) = workload();
    let generated = design_at_half_recall();
    let report = generated.simulate(queries);
    let predicted = generated.choice.prediction.qps;
    let ratio = report.qps / predicted;
    assert!(
        (0.5..=1.7).contains(&ratio),
        "simulated QPS {:.0} deviates too far from predicted {:.0} (ratio {ratio:.2})",
        report.qps,
        predicted
    );
}

#[test]
fn co_designed_accelerator_beats_the_fixed_baseline() {
    let (_, queries) = workload();
    let generated = design_at_half_recall();
    let fanns_qps = generated.simulate(queries).qps;
    let baseline = fanns_baselines::fpga_fixed::measure_fixed_fpga(
        &generated.index,
        generated.choice.params,
        queries,
        140.0,
    )
    .unwrap();
    assert!(
        fanns_qps >= baseline.qps * 0.95,
        "co-designed accelerator ({fanns_qps:.0} QPS) should not lose to the fixed baseline ({:.0} QPS)",
        baseline.qps
    );
}

#[test]
fn kernel_plan_reflects_the_chosen_design() {
    let generated = design_at_half_recall();
    let plan_text = emit_kernel_plan(&generated.plan);
    assert_eq!(plan_text, generated.kernel_plan);
    let expected_pes = generated.choice.design.sizing.pq_dist_pes;
    assert_eq!(plan_text.matches("pq_dist_pe_").count(), expected_pes);
}

#[test]
fn higher_recall_goal_costs_throughput() {
    let (db, queries) = workload();
    let relaxed = Fanns::new(test_request(10, 0.4)).run(db, queries).unwrap();
    let strict = Fanns::new(test_request(10, 0.8)).run(db, queries);
    if let Ok(strict) = strict {
        assert!(
            strict.choice.prediction.qps <= relaxed.choice.prediction.qps * 1.05,
            "a stricter recall goal should not be predicted faster"
        );
    }
}
