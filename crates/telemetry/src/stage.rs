//! The stage clock: where a thread's time went, by stage of the read and
//! write paths.
//!
//! A [`Stage`] scope ([`Stage::enter`]) times the code it wraps into a
//! thread-local accumulator, but only while a [`StageClock`] is running on
//! that thread; otherwise entering a stage is one thread-local read and
//! nothing else, so the scopes stay in the engine whether or not anyone
//! measures. Scopes sit at page and chunk granularity (a page read, a chunk
//! decode, a kernel over a batch, a WAL write of a commit group, an index
//! probe), never around one record.
//!
//! Scopes nest, and a stage's time is **exclusive**: entering a stage
//! inside another pauses the outer one until the inner scope ends. A page
//! read triggered from inside a kernel's column fetch is page-read time,
//! not kernel time, and the stages of one run add up to the time spent
//! inside any scope — the rest of the wall time (reconciliation, planning,
//! finalisation) is outside every stage.
//!
//! `QueryEngine::explain_analyze` runs a clock around each partition and
//! prints the split next to its counters; anything else that wants a split
//! (a benchmark round, a flush) starts one itself:
//!
//! ```
//! use telemetry::stage::{Stage, StageClock};
//! let clock = StageClock::start();
//! {
//!     let _read = Stage::PageRead.enter();
//!     // ... read a page ...
//! }
//! let times = clock.stop();
//! assert_eq!(times.count(Stage::PageRead), 1);
//! ```

use std::cell::RefCell;
use std::fmt;
use std::time::{Duration, Instant};

/// A stage of the read or write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Fetching a page: the buffer cache, the backend read and its CRC.
    PageRead,
    /// LZ-decompressing a page or a chunk's values.
    Decompress,
    /// Decoding a column chunk's definition levels.
    DecodeLevels,
    /// Decoding a column chunk's values.
    DecodeValues,
    /// A column kernel folding a batch's selection.
    KernelFold,
    /// The assembled lane: building documents and running the operators
    /// over them.
    Assemble,
    /// Encoding a column chunk, its codec choice included.
    ChunkEncode,
    /// Writing a page to the store.
    PageWrite,
    /// Writing a dataset's staged WAL frames to the operating system (one
    /// `write` per commit group).
    WalWrite,
    /// Forcing the WAL to the device (`fsync`).
    WalSync,
    /// A secondary-index range probe under the dataset's write lock (once
    /// it is held): the index walk and the active memtable's answers for
    /// its keys.
    IndexProbe,
    /// Resolving a range probe's keys below the active memtable, one batch
    /// of ascending keys level by level (sealed memtables, then components).
    PointLookup,
}

impl Stage {
    /// Every stage, in the order reports list them.
    pub const ALL: [Stage; 12] = [
        Stage::PageRead,
        Stage::Decompress,
        Stage::DecodeLevels,
        Stage::DecodeValues,
        Stage::KernelFold,
        Stage::Assemble,
        Stage::ChunkEncode,
        Stage::PageWrite,
        Stage::WalWrite,
        Stage::WalSync,
        Stage::IndexProbe,
        Stage::PointLookup,
    ];

    /// The stage's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::PageRead => "page read",
            Stage::Decompress => "decompress",
            Stage::DecodeLevels => "levels",
            Stage::DecodeValues => "values",
            Stage::KernelFold => "kernel",
            Stage::Assemble => "assemble",
            Stage::ChunkEncode => "encode",
            Stage::PageWrite => "page write",
            Stage::WalWrite => "wal write",
            Stage::WalSync => "wal sync",
            Stage::IndexProbe => "index probe",
            Stage::PointLookup => "point lookup",
        }
    }

    /// Time the code until the returned scope drops as this stage, when a
    /// clock runs on this thread.
    #[inline]
    pub fn enter(self) -> StageScope {
        let timed = CLOCK.with(|clock| match clock.borrow_mut().as_mut() {
            Some(running) => {
                running.switch(Some(self));
                true
            }
            None => false,
        });
        StageScope { timed }
    }
}

/// An open [`Stage`] scope; dropping it ends the stage and resumes the one
/// it interrupted.
#[must_use = "a stage is timed until its scope drops"]
pub struct StageScope {
    timed: bool,
}

impl Drop for StageScope {
    #[inline]
    fn drop(&mut self) {
        if self.timed {
            CLOCK.with(|clock| {
                if let Some(running) = clock.borrow_mut().as_mut() {
                    running.leave();
                }
            });
        }
    }
}

/// Per-stage wall time and scope count of one clock run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTimes {
    nanos: [u64; Stage::ALL.len()],
    counts: [u64; Stage::ALL.len()],
}

impl StageTimes {
    /// Exclusive wall time spent in `stage`.
    pub fn time(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.nanos[stage as usize])
    }

    /// How many scopes of `stage` ended.
    pub fn count(&self, stage: Stage) -> u64 {
        self.counts[stage as usize]
    }

    /// Time spent inside any stage.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// Add another run's times (another partition, another round).
    pub fn absorb(&mut self, other: &StageTimes) {
        for i in 0..Stage::ALL.len() {
            self.nanos[i] += other.nanos[i];
            self.counts[i] += other.counts[i];
        }
    }
}

impl fmt::Display for StageTimes {
    /// The stages that ran, as `name time (scopes)`, comma-separated.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for stage in Stage::ALL {
            if self.count(stage) == 0 {
                continue;
            }
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(
                f,
                "{} {:?} ({})",
                stage.name(),
                self.time(stage),
                self.count(stage)
            )?;
        }
        if first {
            f.write_str("none")?;
        }
        Ok(())
    }
}

/// A running clock on the current thread (see the module docs). Starting a
/// clock while another runs on the thread suspends the outer one; stopping
/// the inner clock resumes it, without the inner run's time.
pub struct StageClock {
    /// The clock this one suspended, restored when this one stops; `None`
    /// once restored.
    outer: Option<Option<Running>>,
}

impl StageClock {
    /// Start timing stages on this thread.
    pub fn start() -> StageClock {
        let outer = CLOCK.with(|clock| clock.borrow_mut().replace(Running::new()));
        StageClock { outer: Some(outer) }
    }

    /// Stop the clock and return what it measured.
    pub fn stop(mut self) -> StageTimes {
        self.restore().map(Running::finish).unwrap_or_default()
    }

    /// Put the suspended clock (or none) back, returning this one's state.
    fn restore(&mut self) -> Option<Running> {
        let outer = self.outer.take()?.map(Running::resumed);
        CLOCK.with(|clock| std::mem::replace(&mut *clock.borrow_mut(), outer))
    }
}

impl Drop for StageClock {
    /// A clock dropped without [`StageClock::stop`] (an early return) stops
    /// all the same.
    fn drop(&mut self) {
        self.restore();
    }
}

thread_local! {
    static CLOCK: RefCell<Option<Running>> = const { RefCell::new(None) };
}

/// The state of a running clock: the times so far, the open scopes
/// innermost last, and when the innermost one last resumed.
struct Running {
    times: StageTimes,
    open: Vec<Stage>,
    since: Instant,
}

impl Running {
    fn new() -> Running {
        Running {
            times: StageTimes::default(),
            open: Vec::new(),
            since: Instant::now(),
        }
    }

    /// Charge the time since the last switch to the innermost open stage
    /// and make `next` the innermost.
    fn switch(&mut self, next: Option<Stage>) {
        let now = Instant::now();
        if let Some(&current) = self.open.last() {
            self.times.nanos[current as usize] += (now - self.since).as_nanos() as u64;
        }
        if let Some(next) = next {
            self.open.push(next);
        }
        self.since = now;
    }

    /// End the innermost open stage.
    fn leave(&mut self) {
        self.switch(None);
        if let Some(stage) = self.open.pop() {
            self.times.counts[stage as usize] += 1;
        }
    }

    /// An outer clock picks up again: the suspended time is not its own.
    fn resumed(mut self) -> Running {
        self.since = Instant::now();
        self
    }

    fn finish(mut self) -> StageTimes {
        while !self.open.is_empty() {
            self.leave();
        }
        self.times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {}
    }

    #[test]
    fn without_a_clock_scopes_time_nothing() {
        {
            let _s = Stage::PageRead.enter();
        }
        let clock = StageClock::start();
        let times = clock.stop();
        assert_eq!(times, StageTimes::default());
        assert_eq!(times.to_string(), "none");
    }

    #[test]
    fn nested_stages_are_exclusive() {
        let clock = StageClock::start();
        {
            let _kernel = Stage::KernelFold.enter();
            spin(Duration::from_millis(2));
            {
                let _read = Stage::PageRead.enter();
                spin(Duration::from_millis(4));
            }
            spin(Duration::from_millis(2));
        }
        let times = clock.stop();
        assert_eq!(times.count(Stage::KernelFold), 1);
        assert_eq!(times.count(Stage::PageRead), 1);
        let kernel = times.time(Stage::KernelFold);
        let read = times.time(Stage::PageRead);
        assert!(read >= Duration::from_millis(4), "{read:?}");
        assert!(kernel >= Duration::from_millis(4), "{kernel:?}");
        // The read is not also charged to the kernel around it.
        assert!(
            kernel < Duration::from_millis(4) + read,
            "{kernel:?} vs {read:?}"
        );
        assert_eq!(times.total(), kernel + read);
        assert!(times.to_string().starts_with("page read "));
    }

    #[test]
    fn an_inner_clock_suspends_the_outer_one() {
        let outer = StageClock::start();
        let _encode = Stage::ChunkEncode.enter();
        let inner = StageClock::start();
        {
            let _write = Stage::PageWrite.enter();
            spin(Duration::from_millis(3));
        }
        let inner_times = inner.stop();
        assert_eq!(inner_times.count(Stage::PageWrite), 1);
        drop(_encode);
        let outer_times = outer.stop();
        assert_eq!(outer_times.count(Stage::PageWrite), 0);
        assert_eq!(outer_times.count(Stage::ChunkEncode), 1);
        assert!(outer_times.time(Stage::ChunkEncode) < Duration::from_millis(3));
        let mut sum = outer_times.clone();
        sum.absorb(&inner_times);
        assert_eq!(sum.count(Stage::PageWrite), 1);
    }
}
