//! The golden fixtures, one line per PE/GB configuration with N ∈ 2..=32
//! and tree dimension ∈ 1..=4, NIC- and host-side: the mean latency in
//! `tests/data/golden_barriers.txt` and the output digest in
//! `tests/data/golden_digests.txt`. Both are written by
//!
//! ```text
//! cargo run --release -p gmsim-bench --bin golden
//! ```

use nic_barrier_suite::testbed::{run_all_with, Algorithm, BarrierExperiment, Descriptor};

/// One golden configuration and what it must reproduce.
pub struct Row {
    pub family: String,
    pub n: usize,
    pub dim: usize,
    pub mean_us: f64,
    pub digest: u64,
}

impl Row {
    fn experiment(&self) -> BarrierExperiment {
        let algorithm = match self.family.as_str() {
            "nic-pe" => Algorithm::Nic(Descriptor::Pe),
            "host-pe" => Algorithm::Host(Descriptor::Pe),
            "nic-gb" => Algorithm::Nic(Descriptor::gb(self.dim)),
            "host-gb" => Algorithm::Host(Descriptor::gb(self.dim)),
            other => panic!("unknown family {other}"),
        };
        BarrierExperiment::new(self.n, algorithm).rounds(40, 5)
    }
}

fn fields(text: &str) -> Vec<Vec<&str>> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
        .collect()
}

/// Both fixtures, joined line by line on `family n dim`.
pub fn rows() -> Vec<Row> {
    let means = fields(include_str!("../data/golden_barriers.txt"));
    let digests = fields(include_str!("../data/golden_digests.txt"));
    assert_eq!(means.len(), digests.len(), "fixtures differ in length");
    means
        .iter()
        .zip(&digests)
        .map(|(m, d)| {
            assert_eq!(m[..3], d[..3], "fixtures out of step");
            Row {
                family: m[0].to_string(),
                n: m[1].parse().expect("n parses"),
                dim: m[2].parse().expect("dim parses"),
                mean_us: m[3].parse().expect("mean parses"),
                digest: u64::from_str_radix(d[3], 16).expect("digest parses"),
            }
        })
        .collect()
}

/// Run every golden configuration as `engine` sets it up and demand the
/// fixtures' exact mean latency and output digest.
pub fn assert_reproduced(
    engine: &str,
    setup: impl Fn(BarrierExperiment) -> BarrierExperiment + Sync,
) {
    let rows = rows();
    assert_eq!(rows.len(), 310, "fixture shape changed");
    let experiments: Vec<_> = rows.iter().map(|r| setup(r.experiment())).collect();
    let measured = run_all_with(&experiments, |e| {
        let m = e.run().unwrap();
        (m.mean_us, m.digest())
    });
    let mismatches: Vec<String> = rows
        .iter()
        .zip(&measured)
        .filter(|(r, &(mean_us, digest))| r.mean_us != mean_us || r.digest != digest)
        .map(|(r, (mean_us, digest))| {
            format!(
                "{} n={} dim={}: golden {:.17e} {:016x} vs {engine} {mean_us:.17e} {digest:016x}",
                r.family, r.n, r.dim, r.mean_us, r.digest
            )
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} configurations drifted under {engine}:\n{}",
        mismatches.len(),
        rows.len(),
        mismatches.join("\n")
    );
}
