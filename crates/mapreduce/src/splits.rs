//! Split sources: how map tasks get their input.
//!
//! [`SplitSource`] gives the job a *recipe* for each split instead of the
//! splits themselves: the driver asks for split `i` only while a map
//! attempt is executing it, and the attempt reads the records through the
//! returned [`SplitData`] in place. Because map inputs must be replayable
//! for the retry/speculation/re-execution ladder, a source must return
//! the same records in the same order for the same index on every call —
//! the same purity contract UDFs already obey.
//!
//! Three sources cover the workspace:
//!
//! * [`RoundRobin`] — lends split `i` of an in-memory slice as its rows
//!   `i, i + m, i + 2m, …` (the paper's `R_i`, read where it lies, as a
//!   Hadoop mapper reads its HDFS block). Every pipeline over a
//!   [`Dataset`](skymr_common::Dataset) uses it; nothing is copied.
//! * `[Vec<In>]` / `Vec<Vec<In>>` — pre-split input, one `Vec` per split,
//!   also lent in place (what [`run_job`](crate::run_job) takes, and how a
//!   second job reads the first one's reducer outputs).
//! * [`FnSplits`] — regenerates a split on demand from a deterministic
//!   recipe, e.g. a seeded `skymr_datagen::stream` chunk. Queued jobs
//!   hold only the recipe, and an attempt's copy is dropped when it ends.

use std::iter::StepBy;
use std::slice::Iter;

/// One split's records, lent by an in-memory source or owned by an
/// on-demand one. The driver reads both through [`Self::len`] and
/// [`Self::iter`].
#[derive(Debug)]
pub enum SplitData<'a, In> {
    /// `rows[0]`, `rows[step]`, `rows[2·step]`, … read in place: a
    /// strided view of the source's rows starting at the split's first
    /// one (`step == 1` lends a whole slice).
    Borrowed {
        /// The source's rows from the split's first record on.
        rows: &'a [In],
        /// Distance between consecutive records of the split (≥ 1).
        step: usize,
    },
    /// A split regenerated for this attempt; dropped when it finishes.
    Owned(Vec<In>),
}

impl<In> SplitData<'_, In> {
    /// Record count of the split.
    pub fn len(&self) -> usize {
        match self {
            SplitData::Borrowed { rows, step } => rows.len().div_ceil(*step),
            SplitData::Owned(v) => v.len(),
        }
    }

    /// `true` iff the split holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The split's records, in split order.
    pub fn iter(&self) -> StepBy<Iter<'_, In>> {
        match self {
            SplitData::Borrowed { rows, step } => rows.iter().step_by(*step),
            SplitData::Owned(v) => v.iter().step_by(1),
        }
    }
}

/// A replayable source of map-task input splits.
///
/// `Sync` because map attempts run concurrently on host threads; the
/// source is only read. Implementations must be *pure*: `load(i)` returns
/// the same records in the same order every time it is called, or retries
/// and speculative attempts would diverge from their originals.
pub trait SplitSource<In>: Sync {
    /// Number of splits (= map tasks).
    fn num_splits(&self) -> usize;

    /// Record count of split `index` without loading it. The skip-
    /// bad-records protocol and the task model need lengths cheaply.
    fn split_len(&self, index: usize) -> usize;

    /// Split `index`, for one map attempt.
    fn load(&self, index: usize) -> SplitData<'_, In>;
}

/// Round-robin splits of a slice, lent in place: split `i` of `m` is rows
/// `i`, `i + m`, `i + 2m`, … — the rule of
/// [`Dataset::split_part`](skymr_common::Dataset::split_part), so a job
/// over `RoundRobin::new(dataset.tuples(), m)` sees exactly the records,
/// in the same order, that one over `dataset.split(m)` does, without a
/// second copy of the input.
#[derive(Debug)]
pub struct RoundRobin<'a, In> {
    rows: &'a [In],
    m: usize,
}

impl<'a, In> RoundRobin<'a, In> {
    /// `m` splits of `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(rows: &'a [In], m: usize) -> Self {
        assert!(m > 0, "cannot split into zero subsets");
        Self { rows, m }
    }
}

impl<In: Sync> SplitSource<In> for RoundRobin<'_, In> {
    fn num_splits(&self) -> usize {
        self.m
    }

    fn split_len(&self, index: usize) -> usize {
        self.rows.len().saturating_sub(index).div_ceil(self.m)
    }

    fn load(&self, index: usize) -> SplitData<'_, In> {
        SplitData::Borrowed {
            rows: self.rows.get(index..).unwrap_or_default(),
            step: self.m,
        }
    }
}

/// Pre-split input: split `i` is `self[i]`, lent whole.
impl<In: Sync> SplitSource<In> for [Vec<In>] {
    fn num_splits(&self) -> usize {
        self.len()
    }

    fn split_len(&self, index: usize) -> usize {
        self[index].len()
    }

    fn load(&self, index: usize) -> SplitData<'_, In> {
        SplitData::Borrowed {
            rows: &self[index],
            step: 1,
        }
    }
}

/// The same, owned: a `&Vec<Vec<In>>` coerces to a `&dyn SplitSource<In>`,
/// which is how `generate_bitstring(&dataset.split(m), …)` still compiles.
impl<In: Sync> SplitSource<In> for Vec<Vec<In>> {
    fn num_splits(&self) -> usize {
        self.as_slice().num_splits()
    }

    fn split_len(&self, index: usize) -> usize {
        self.as_slice().split_len(index)
    }

    fn load(&self, index: usize) -> SplitData<'_, In> {
        self.as_slice().load(index)
    }
}

/// A borrowed source is a source. `run_job_from` stores its source as a
/// `&dyn SplitSource`, which needs a sized type: `run_job` hands it
/// `&splits`, a `&[Vec<In>]`.
impl<In, T: SplitSource<In> + ?Sized> SplitSource<In> for &T {
    fn num_splits(&self) -> usize {
        (**self).num_splits()
    }

    fn split_len(&self, index: usize) -> usize {
        (**self).split_len(index)
    }

    fn load(&self, index: usize) -> SplitData<'_, In> {
        (**self).load(index)
    }
}

/// Splits regenerated on demand from a deterministic recipe.
///
/// `lens[i]` must equal `make(i).len()` — the constructor is handed the
/// lengths up front so queued jobs can report their shape without
/// generating a single record.
pub struct FnSplits<F> {
    lens: Vec<usize>,
    make: F,
}

impl<F> FnSplits<F> {
    /// A source of `lens.len()` splits, where split `i` holds `lens[i]`
    /// records produced by `make(i)`.
    pub fn new(lens: Vec<usize>, make: F) -> Self {
        Self { lens, make }
    }
}

impl<F> std::fmt::Debug for FnSplits<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnSplits")
            .field("lens", &self.lens)
            .finish()
    }
}

impl<In, F> SplitSource<In> for FnSplits<F>
where
    F: Fn(usize) -> Vec<In> + Sync,
{
    fn num_splits(&self) -> usize {
        self.lens.len()
    }

    fn split_len(&self, index: usize) -> usize {
        self.lens[index]
    }

    fn load(&self, index: usize) -> SplitData<'_, In> {
        let split = (self.make)(index);
        debug_assert_eq!(
            split.len(),
            self.lens[index],
            "FnSplits: declared length of split {index} disagrees with its recipe"
        );
        SplitData::Owned(split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skymr_common::{Dataset, Tuple};

    fn collect<In: Clone>(split: &SplitData<'_, In>) -> Vec<In> {
        split.iter().cloned().collect()
    }

    #[test]
    fn slice_splits_borrow_without_copying() {
        let data = vec![vec![1u32, 2], vec![3]];
        assert_eq!(data.num_splits(), 2);
        assert_eq!(data.split_len(0), 2);
        assert_eq!(data.split_len(1), 1);
        assert_eq!(collect(&data.load(0)), [1, 2]);
        assert!(matches!(
            data.as_slice().load(1),
            SplitData::Borrowed { step: 1, .. }
        ));
    }

    #[test]
    fn round_robin_lends_exactly_what_dataset_split_copies() {
        for n in 0..=40u64 {
            let tuples = (0..n).map(|id| Tuple::new(id, vec![0.5])).collect();
            let ds = Dataset::new_unchecked(1, tuples);
            for m in 1..=n as usize + 2 {
                let copied = ds.split(m);
                let lent = RoundRobin::new(ds.tuples(), m);
                assert_eq!(lent.num_splits(), copied.len(), "n={n} m={m}");
                for (i, want) in copied.iter().enumerate() {
                    let split = lent.load(i);
                    assert!(matches!(split, SplitData::Borrowed { .. }));
                    assert_eq!(&collect(&split), want, "n={n} m={m} split {i}");
                    assert_eq!(lent.split_len(i), split.len(), "n={n} m={m} split {i}");
                }
            }
        }
    }

    #[test]
    fn fn_splits_regenerate_identically_on_every_load() {
        let source = FnSplits::new(vec![3, 2], |i| {
            (0..(3 - i)).map(|n| (i * 10 + n) as u32).collect()
        });
        assert_eq!(source.num_splits(), 2);
        let first = collect(&source.load(0));
        let again = collect(&source.load(0));
        assert_eq!(first, again, "replayed attempts must see identical input");
        assert_eq!(collect(&source.load(1)), [10, 11]);
        assert!(matches!(source.load(1), SplitData::Owned(_)));
    }
}
