//! Fleet determinism matrix: the rack-level CSV and aggregate
//! fingerprint must be **byte-identical** across
//! `{sequential, epoch-parallel}` drivers × `{1, 4}` workers ×
//! `{hot, fleet}` footprint profiles, and the reference cell must hash
//! to constants recorded while the heap queue backend and the
//! skip-off driver still existed and matched it.
//!
//! Machine-level golden anchors say one NIC's exports are pinned;
//! fleet identity additionally says the rack fold doesn't depend on how
//! machines are sharded across worker threads, in what order their
//! epoch deltas arrive, or where each machine's storage starts.

use taichi_fleet::{run, FleetConfig, FleetDriver};
use taichi_sim::{FootprintProfile, SimDuration};

fn config() -> FleetConfig {
    FleetConfig {
        machines: 6,
        epochs: 5,
        epoch_len: SimDuration::from_millis(2),
        seed: 0x0F1E_E71D,
        churn_per_epoch: 1.5,
        storm_epoch: Some(2),
        storm_vms_per_machine: 2,
        check_invariants: true,
        ..FleetConfig::default()
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

struct Artifacts {
    fingerprint: Vec<u64>,
    epoch_csv: String,
    summary_csv: String,
}

fn collect(driver: FleetDriver, footprint: FootprintProfile) -> Artifacts {
    let cfg = FleetConfig {
        footprint,
        ..config()
    };
    let result = run(&cfg, driver);
    assert_eq!(
        result.violation_count, 0,
        "invariants must hold on every machine at every epoch boundary \
         ({driver:?}/{footprint:?}): {:?}",
        result.violations
    );
    Artifacts {
        fingerprint: result.fingerprint(),
        epoch_csv: result.epoch_table().to_csv(),
        summary_csv: result.summary_table().to_csv(),
    }
}

#[test]
fn rack_artifacts_are_byte_identical_across_the_matrix() {
    let drivers = [
        FleetDriver::Sequential,
        FleetDriver::EpochParallel { workers: 1 },
        FleetDriver::EpochParallel { workers: 4 },
    ];
    let profiles = [FootprintProfile::Fleet, FootprintProfile::Hot];

    // Reference: the fleet profile under the reference driver.
    let baseline = collect(drivers[0], profiles[0]);
    assert!(
        baseline.epoch_csv.lines().count() == config().epochs + 1,
        "one CSV row per epoch plus the header"
    );
    let fp_text: String = baseline
        .fingerprint
        .iter()
        .map(|v| format!("{v}\t"))
        .collect();
    let got = (
        fnv64(fp_text.as_bytes()),
        fnv64(baseline.epoch_csv.as_bytes()),
        fnv64(baseline.summary_csv.as_bytes()),
    );
    assert_eq!(
        got,
        (
            0x0cfe_e76c_0108_0a49,
            0xbaa5_f329_834b_a83b,
            0x53e6_a25a_50a9_a227
        ),
        "(fingerprint, epoch csv, summary csv) hashes moved — got \
         ({:#018x}, {:#018x}, {:#018x})",
        got.0,
        got.1,
        got.2
    );

    for &driver in &drivers {
        for &footprint in &profiles {
            let other = collect(driver, footprint);
            assert_eq!(
                baseline.fingerprint, other.fingerprint,
                "aggregate fingerprint differs: Sequential/Fleet vs {driver:?}/{footprint:?}"
            );
            assert_eq!(
                baseline.epoch_csv, other.epoch_csv,
                "rack CSV differs: Sequential/Fleet vs {driver:?}/{footprint:?}"
            );
            assert_eq!(
                baseline.summary_csv, other.summary_csv,
                "summary CSV differs: Sequential/Fleet vs {driver:?}/{footprint:?}"
            );
        }
    }
}
