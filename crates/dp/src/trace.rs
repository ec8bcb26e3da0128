//! Packet-trace capture and replay.
//!
//! The paper's evaluation runs against production traffic; the closest
//! reproducible equivalent is trace-driven replay. A [`Trace`] is an
//! ordered list of packet records that can be captured from any
//! generator, serialized to CSV (one line per packet), loaded back,
//! and replayed through a [`TrafficGen`] — giving
//! experiments a fixed, inspectable workload that is independent of
//! distribution parameters.

use taichi_hw::IoKind;
use taichi_sim::{Rng, SimDuration};

use crate::generator::TrafficGen;

/// One packet arrival in a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Submission time, nanoseconds from trace start.
    pub at_ns: u64,
    /// Destination DP CPU index.
    pub dest_cpu: u32,
    /// Payload size in bytes.
    pub size_bytes: u32,
}

/// An ordered packet trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

/// Errors from parsing a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A line did not have exactly three comma-separated fields.
    BadFieldCount {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse as an integer.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending field text.
        field: String,
    },
    /// Timestamps were not non-decreasing.
    OutOfOrder {
        /// 1-based line number of the regressing record.
        line: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadFieldCount { line } => {
                write!(f, "line {line}: expected `at_ns,dest_cpu,size_bytes`")
            }
            TraceError::BadNumber { line, field } => {
                write!(f, "line {line}: `{field}` is not a non-negative integer")
            }
            TraceError::OutOfOrder { line } => {
                write!(f, "line {line}: timestamps must be non-decreasing")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Creates a trace from records.
    ///
    /// # Panics
    ///
    /// Panics when timestamps are not non-decreasing — build traces
    /// through [`Trace::parse_csv`] for fallible construction.
    pub fn new(records: Vec<TraceRecord>) -> Self {
        assert!(
            records.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "trace records must be time-ordered"
        );
        Trace { records }
    }

    /// Captures a trace by running `generator` until `horizon`.
    pub fn capture(generator: &mut TrafficGen, rng: &mut Rng, horizon: SimDuration) -> Self {
        let mut records = Vec::new();
        loop {
            let p = generator.next_packet(rng);
            if p.submitted_at.as_nanos() > horizon.as_nanos() {
                break;
            }
            records.push(TraceRecord {
                at_ns: p.submitted_at.as_nanos(),
                dest_cpu: p.dest_cpu.0,
                size_bytes: p.size_bytes,
            });
        }
        Trace { records }
    }

    /// Parses the CSV form: one `at_ns,dest_cpu,size_bytes` line per
    /// packet; blank lines and `#` comments are skipped.
    pub fn parse_csv(text: &str) -> Result<Self, TraceError> {
        let mut records = Vec::new();
        let mut last = 0u64;
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let t = raw.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = t.split(',').map(str::trim).collect();
            if fields.len() != 3 {
                return Err(TraceError::BadFieldCount { line });
            }
            let num = |s: &str| -> Result<u64, TraceError> {
                s.parse().map_err(|_| TraceError::BadNumber {
                    line,
                    field: s.to_string(),
                })
            };
            let at_ns = num(fields[0])?;
            let dest_cpu = num(fields[1])? as u32;
            let size_bytes = num(fields[2])?.max(1) as u32;
            if at_ns < last {
                return Err(TraceError::OutOfOrder { line });
            }
            last = at_ns;
            records.push(TraceRecord {
                at_ns,
                dest_cpu,
                size_bytes,
            });
        }
        Ok(Trace { records })
    }

    /// Serializes to the CSV form accepted by [`Trace::parse_csv`].
    pub fn to_csv(&self) -> String {
        let mut out = String::from("# at_ns,dest_cpu,size_bytes\n");
        for r in &self.records {
            out.push_str(&format!("{},{},{}\n", r.at_ns, r.dest_cpu, r.size_bytes));
        }
        out
    }

    /// The records, time-ordered.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace has no packets.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Trace length in time (timestamp of the last record).
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_nanos(self.records.last().map(|r| r.at_ns).unwrap_or(0))
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.size_bytes as u64).sum()
    }

    /// Mean offered packet rate over the trace duration (pps).
    pub fn mean_pps(&self) -> f64 {
        let d = self.duration().as_secs_f64();
        if d <= 0.0 {
            0.0
        } else {
            self.len() as f64 / d
        }
    }

    /// Builds a replaying generator for this trace.
    ///
    /// The replay loops: when the trace is exhausted it restarts with a
    /// cumulative time offset, producing a continuous workload whose
    /// period is [`Trace::duration`] (plus one mean gap between
    /// iterations). Replay ignores the RNG entirely, so it is
    /// bit-identical under any seed.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace — there is nothing to replay.
    pub fn replayer(&self, kind: IoKind) -> TrafficGen {
        assert!(!self.is_empty(), "cannot replay an empty trace");
        TrafficGen::replay(self.records.clone(), kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ArrivalPattern;
    use taichi_hw::CpuId;
    use taichi_sim::Dist;

    fn sample_trace() -> Trace {
        Trace::new(vec![
            TraceRecord {
                at_ns: 100,
                dest_cpu: 0,
                size_bytes: 64,
            },
            TraceRecord {
                at_ns: 250,
                dest_cpu: 3,
                size_bytes: 1500,
            },
            TraceRecord {
                at_ns: 250,
                dest_cpu: 1,
                size_bytes: 512,
            },
        ])
    }

    #[test]
    fn csv_round_trip() {
        let t = sample_trace();
        let csv = t.to_csv();
        let back = Trace::parse_csv(&csv).expect("round trip parses");
        assert_eq!(t, back);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let t = Trace::parse_csv("# header\n\n10,0,64\n\n20,1,128\n").expect("parses");
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[1].dest_cpu, 1);
    }

    #[test]
    fn parse_errors_are_precise() {
        assert_eq!(
            Trace::parse_csv("10,0\n"),
            Err(TraceError::BadFieldCount { line: 1 })
        );
        assert_eq!(
            Trace::parse_csv("10,zero,64\n"),
            Err(TraceError::BadNumber {
                line: 1,
                field: "zero".into()
            })
        );
        assert_eq!(
            Trace::parse_csv("20,0,64\n10,0,64\n"),
            Err(TraceError::OutOfOrder { line: 2 })
        );
        // Display is human-readable.
        let e = TraceError::OutOfOrder { line: 2 };
        assert!(e.to_string().contains("non-decreasing"));
    }

    #[test]
    fn capture_from_generator() {
        let mut g = TrafficGen::new(
            ArrivalPattern::OpenLoop {
                gap_us: Dist::constant(10.0),
            },
            Dist::constant(256.0),
            IoKind::Network,
            (0..4).map(CpuId).collect(),
        );
        let mut rng = taichi_sim::Rng::new(1);
        let t = Trace::capture(&mut g, &mut rng, SimDuration::from_millis(1));
        // 10 µs gaps over 1 ms → ~100 packets.
        assert!((95..=100).contains(&t.len()), "len {}", t.len());
        assert!(t.duration() <= SimDuration::from_millis(1));
        assert_eq!(t.total_bytes(), 256 * t.len() as u64);
        assert!((t.mean_pps() - 100_000.0).abs() / 100_000.0 < 0.1);
    }

    #[test]
    fn summary_stats() {
        let t = sample_trace();
        assert_eq!(t.duration(), SimDuration::from_nanos(250));
        assert_eq!(t.total_bytes(), 64 + 1500 + 512);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_records_panic() {
        Trace::new(vec![
            TraceRecord {
                at_ns: 20,
                dest_cpu: 0,
                size_bytes: 1,
            },
            TraceRecord {
                at_ns: 10,
                dest_cpu: 0,
                size_bytes: 1,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_replay_panics() {
        Trace::default().replayer(IoKind::Network);
    }
}
