//! Property tests for the MapReduce engine: jobs must compute the same
//! answer as a sequential reference regardless of split shape, reducer
//! count, or injected failures, and the scheduling model must respect its
//! bounds.

use std::collections::BTreeMap;

use proptest::prelude::*;

use skymr_mapreduce::telemetry::place::place;
use skymr_mapreduce::{
    run_job, ClusterConfig, Emitter, FaultPlan, HashPartitioner, JobConfig, MapFactory, MapTask,
    OutputCollector, ReduceFactory, ReduceTask, TaskContext, TaskFault,
};

/// Sum-by-key: the canonical aggregation job used as the reference model.
struct SumMap;
struct SumMapTask;
impl MapTask for SumMapTask {
    type In = (u16, u32);
    type K = u16;
    type V = u64;
    fn map(&mut self, input: &(u16, u32), out: &mut Emitter<u16, u64>) {
        out.emit(input.0, input.1 as u64);
    }
}
impl MapFactory for SumMap {
    type Task = SumMapTask;
    fn create(&self, _: &TaskContext) -> SumMapTask {
        SumMapTask
    }
}

struct SumReduce;
struct SumReduceTask;
impl ReduceTask for SumReduceTask {
    type K = u16;
    type V = u64;
    type Out = (u16, u64);
    fn reduce(&mut self, key: u16, values: Vec<u64>, out: &mut OutputCollector<(u16, u64)>) {
        out.collect((key, values.into_iter().sum()));
    }
}
impl ReduceFactory for SumReduce {
    type Task = SumReduceTask;
    fn create(&self, _: &TaskContext) -> SumReduceTask {
        SumReduceTask
    }
}

fn reference(records: &[(u16, u32)]) -> BTreeMap<u16, u64> {
    let mut m = BTreeMap::new();
    for &(k, v) in records {
        *m.entry(k).or_insert(0u64) += v as u64;
    }
    m
}

fn split_into(records: &[(u16, u32)], splits: usize) -> Vec<Vec<(u16, u32)>> {
    let mut out: Vec<Vec<(u16, u32)>> = (0..splits).map(|_| Vec::new()).collect();
    for (i, r) in records.iter().enumerate() {
        out[i % splits].push(*r);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn job_matches_sequential_reference(
        records in proptest::collection::vec((0u16..20, 0u32..1000), 0..200),
        mappers in 1usize..8,
        reducers in 1usize..8,
    ) {
        let splits = split_into(&records, mappers);
        let outcome = run_job(
            &ClusterConfig::test(),
            &JobConfig::new("sum", reducers),
            &splits,
            &SumMap,
            &SumReduce,
            &HashPartitioner,
        );
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(err) => return Err(format!("job aborted: {err}")),
        };
        let got: BTreeMap<u16, u64> = outcome.into_flat_output().into_iter().collect();
        prop_assert_eq!(got, reference(&records));
    }

    #[test]
    fn failures_never_change_the_answer(
        records in proptest::collection::vec((0u16..10, 0u32..100), 1..100),
        mappers in 1usize..5,
        reducers in 1usize..5,
        fail_map in proptest::collection::btree_set(0usize..5, 0..3),
        fail_reduce in proptest::collection::btree_set(0usize..5, 0..3),
    ) {
        let splits = split_into(&records, mappers);
        let mut faults = FaultPlan::fail_maps(fail_map.into_iter().filter(|&i| i < mappers));
        for j in fail_reduce.into_iter().filter(|&j| j < reducers) {
            faults = faults.with_reduce_fault(j, TaskFault::lost(1));
        }
        let expected_retries =
            (faults.map_faults.len() + faults.reduce_faults.len()) as u64;
        let outcome = run_job(
            &ClusterConfig::test(),
            &JobConfig::new("sum", reducers).with_faults(faults),
            &splits,
            &SumMap,
            &SumReduce,
            &HashPartitioner,
        );
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(err) => return Err(format!("job aborted: {err}")),
        };
        prop_assert_eq!(
            outcome.metrics.map_retries + outcome.metrics.reduce_retries,
            expected_retries
        );
        let got: BTreeMap<u16, u64> = outcome.into_flat_output().into_iter().collect();
        prop_assert_eq!(got, reference(&records));
    }

    #[test]
    fn makespan_bounds(
        ticks in proptest::collection::vec(0u64..1_000_000, 0..40),
        slots in 1usize..16,
    ) {
        let (placed, span) = place(&ticks, slots, 0);
        let total: u64 = ticks.iter().sum();
        let max = ticks.iter().max().copied().unwrap_or(0);
        // Classic list-scheduling bounds.
        prop_assert!(span >= max, "makespan below the longest task");
        prop_assert!(span >= total / slots as u64, "makespan below the load bound");
        prop_assert!(span <= total, "makespan above the serial bound");
        // One slot serializes everything.
        prop_assert_eq!(place(&ticks, 1, 0).1, total);
        // LPT guarantee: within 4/3 of the trivial lower bound + max.
        let lower = std::cmp::max(max, total / slots as u64);
        prop_assert!(span <= lower * 4 / 3 + max);
        // The placement is the schedule the makespan was read off.
        prop_assert_eq!(placed.iter().map(|p| p.end).max().unwrap_or(0), span);
        prop_assert!(placed.iter().zip(&ticks).all(|(p, &t)| p.end - p.start == t && p.slot < slots));
    }

    #[test]
    fn shuffle_accounting_matches_emissions(
        records in proptest::collection::vec((0u16..8, 0u32..50), 0..100),
        reducers in 1usize..5,
    ) {
        let splits = split_into(&records, 3);
        let outcome = run_job(
            &ClusterConfig::test(),
            &JobConfig::new("sum", reducers),
            &splits,
            &SumMap,
            &SumReduce,
            &HashPartitioner,
        );
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(err) => return Err(format!("job aborted: {err}")),
        };
        // Each (u16, u64) pair is 2 + 8 bytes on the wire.
        prop_assert_eq!(outcome.metrics.shuffle_bytes, records.len() as u64 * 10);
        prop_assert_eq!(outcome.metrics.map_output_records, records.len() as u64);
        prop_assert_eq!(
            outcome.metrics.per_reducer_bytes.iter().sum::<u64>(),
            outcome.metrics.shuffle_bytes
        );
    }
}
