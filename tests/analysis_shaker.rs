//! Schedule-shaker integration tests: MR-GPSRS and MR-GPMRS must produce
//! byte-identical sorted skylines no matter how the engine schedules the
//! work — host thread counts, slot counts, mapper/reducer fan-out, and
//! input arrival order are all shaken under seeded configurations.

use skymr::{mr_gpmrs, mr_gpsrs, SkylineConfig, SkylineRun};
use skymr_common::{Dataset, Result};
use skymr_datagen::Distribution;
use skymr_integration_tests::scenario;
use skymr_mapreduce::analysis::{assert_schedule_independent, ShakeCase};

/// Serializes the run's logical output — the id-sorted skyline tuples —
/// to a canonical byte string. Metrics and timings are deliberately
/// excluded: they legitimately vary with the schedule.
fn skyline_bytes(run: &SkylineRun) -> Vec<u8> {
    let mut bytes = Vec::new();
    for t in &run.skyline {
        bytes.extend_from_slice(&t.id.to_le_bytes());
        for v in &t.values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    bytes
}

/// Runs `algo` on a case-permuted copy of `data` under the case's cluster
/// shape, with mapper/reducer fan-out also derived from the case.
fn run_shaken<F>(data: &Dataset, case: &ShakeCase, algo: F) -> Vec<u8>
where
    F: Fn(&Dataset, &SkylineConfig) -> Result<SkylineRun>,
{
    let mut tuples = data.tuples().to_vec();
    case.permute(&mut tuples);
    let shuffled = Dataset::new(data.dim(), tuples).expect("permutation preserves validity");

    let mut config = SkylineConfig::test()
        .with_mappers(1 + case.map_slots)
        .with_reducers(case.reduce_slots);
    config.cluster = case.cluster(&config.cluster);

    let run = algo(&shuffled, &config).expect("shaken run must succeed");
    skyline_bytes(&run)
}

#[test]
fn gpsrs_output_is_schedule_independent() {
    let data = scenario(Distribution::Anticorrelated, 3, 500, 601);
    let report =
        assert_schedule_independent(8, 0xB17_57A7E, |case| run_shaken(&data, case, mr_gpsrs));
    assert_eq!(report.cases.len(), 8);
    assert!(report.output_len > 0, "anticorrelated data has a skyline");
}

#[test]
fn gpmrs_output_is_schedule_independent() {
    let data = scenario(Distribution::Anticorrelated, 3, 500, 601);
    let report =
        assert_schedule_independent(8, 0x6B_D155, |case| run_shaken(&data, case, mr_gpmrs));
    assert_eq!(report.cases.len(), 8);
    assert!(report.output_len > 0);
}

#[test]
fn both_algorithms_agree_under_every_shaken_schedule() {
    // Stronger than per-algorithm stability: GPSRS and GPMRS must agree
    // with each other in every configuration, so one shake covers both
    // determinism and cross-algorithm equivalence.
    let data = scenario(Distribution::Clustered { clusters: 3 }, 4, 400, 602);
    assert_schedule_independent(8, 0xCAFE, |case| {
        let a = run_shaken(&data, case, mr_gpsrs);
        let b = run_shaken(&data, case, mr_gpmrs);
        assert_eq!(a, b, "GPSRS and GPMRS diverged in case {}", case.index);
        a
    });
}

mod raw_engine {
    //! Regression lock for the PR-2 nondeterminism audit of
    //! `crates/mapreduce/src/failure.rs` and `partitioner.rs`: the
    //! failure plan stores task ids in `BTreeSet`s and the partitioners
    //! hash single keys (no hash-container iteration ever reaches
    //! emitted output). This test pins the consequence — a raw engine
    //! job routed through `HashPartitioner` *with failure injection
    //! active* stays byte-identical across shaken schedules — so any
    //! future `HashMap`-iteration regression in either file trips here
    //! as well as in clippy's `disallowed-types` ban on `HashMap`/`HashSet`.

    use skymr_mapreduce::{
        run_job, ClusterConfig, Emitter, FaultPlan, HashPartitioner, JobConfig, MapFactory,
        MapTask, OutputCollector, ReduceFactory, ReduceTask, ShakeCase, TaskContext, TaskFault,
    };

    struct WcMap;
    struct WcMapTask;
    impl MapTask for WcMapTask {
        type In = String;
        type K = String;
        type V = u64;
        fn map(&mut self, input: &String, out: &mut Emitter<String, u64>) {
            for word in input.split_whitespace() {
                out.emit(word.to_owned(), 1);
            }
        }
    }
    impl MapFactory for WcMap {
        type Task = WcMapTask;
        fn create(&self, _ctx: &TaskContext) -> WcMapTask {
            WcMapTask
        }
    }

    struct WcReduce;
    struct WcReduceTask;
    impl ReduceTask for WcReduceTask {
        type K = String;
        type V = u64;
        type Out = (String, u64);
        fn reduce(
            &mut self,
            key: String,
            values: Vec<u64>,
            out: &mut OutputCollector<(String, u64)>,
        ) {
            out.collect((key, values.iter().sum()));
        }
    }
    impl ReduceFactory for WcReduce {
        type Task = WcReduceTask;
        fn create(&self, _ctx: &TaskContext) -> WcReduceTask {
            WcReduceTask
        }
    }

    fn run_case(case: &ShakeCase) -> Vec<u8> {
        // Three map tasks and two reduce tasks; every one of them fails
        // once, so each retry path replays under each shaken schedule.
        let mut splits = vec![
            vec!["a b a".to_owned(), "c d".to_owned()],
            vec!["b b e".to_owned()],
            vec!["a c e f".to_owned()],
        ];
        case.permute(&mut splits);
        let cluster = case.cluster(&ClusterConfig::test());
        let config = JobConfig::new("wc-shake", 2).with_faults(
            FaultPlan::fail_maps([0, 1, 2])
                .with_reduce_fault(0, TaskFault::lost(1))
                .with_reduce_fault(1, TaskFault::lost(1)),
        );
        let outcome = run_job(
            &cluster,
            &config,
            &splits,
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        )
        .expect("retries recover every injected failure");
        let mut pairs = outcome.into_flat_output();
        pairs.sort();
        let mut bytes = Vec::new();
        for (word, count) in pairs {
            bytes.extend_from_slice(word.as_bytes());
            bytes.push(b'=');
            bytes.extend_from_slice(&count.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn failure_replay_with_hash_partitioning_is_schedule_independent() {
        let report = skymr_mapreduce::assert_schedule_independent(8, 0xF417_0B5E, run_case);
        assert_eq!(report.cases.len(), 8);
        assert!(report.output_len > 0);
    }
}

#[test]
fn shaker_handles_degenerate_inputs() {
    let empty = Dataset::new(2, vec![]).expect("empty dataset is valid");
    let report = assert_schedule_independent(8, 7, |case| run_shaken(&empty, case, mr_gpsrs));
    assert_eq!(report.output_len, 0);
}
