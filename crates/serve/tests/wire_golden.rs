//! Byte pin of the CELL payload encoding and the checkpoint journal lines.
//!
//! A small fixed-seed grid with a fault axis (so fault counts are non-zero)
//! is solved in-process under the bit-reproducible configuration
//! (`paper-fixed` lineup + `RuntimePolicy::Fixed`).  Every cell is encoded
//! with [`encode_cell`] and appended to a fresh journal with
//! [`CheckpointWriter::append`]; both byte streams are compared against
//! snapshots committed under `crates/serve/tests/golden/`.
//!
//! Any drift in the wire bytes or the journal format fails this test.  After
//! an *intended* format change, re-bless the snapshots with:
//!
//! ```sh
//! TEG_BLESS=1 cargo test -p teg-serve --test wire_golden
//! ```

use std::fs;
use std::path::PathBuf;

use teg_serve::checkpoint::{checkpoint_path, CheckpointWriter};
use teg_serve::codec::{decode_cell, encode_cell};
use teg_serve::protocol::policy_token;
use teg_sim::{GridSpec, RuntimePolicy, SweepCellReport, SweepRunner};
use teg_units::Seconds;

const POLICY: RuntimePolicy = RuntimePolicy::Fixed(Seconds::new(0.002));

/// Two module counts × two fault profiles: four cells, four schemes each.
const GRID: &str = "modules=6,8|seeds=7|drive=city:10|var=none\
                    |fault=healthy,random:severe:severe|lineup=paper-fixed:0.002";

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Compares `actual` against the committed snapshot, or rewrites the
/// snapshot when `TEG_BLESS=1` is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("TEG_BLESS").is_some_and(|v| v == "1") {
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
        fs::write(&path, actual).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with TEG_BLESS=1 cargo test \
             -p teg-serve --test wire_golden",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{name} drifted from its golden snapshot; if the change is intended, re-bless with \
         TEG_BLESS=1 cargo test -p teg-serve --test wire_golden"
    );
}

fn cells() -> (String, Vec<SweepCellReport>) {
    let spec = GridSpec::parse(GRID).unwrap();
    let grid = spec.to_grid().unwrap();
    let report = SweepRunner::new()
        .workers(1)
        .runtime_policy(POLICY)
        .run(&grid)
        .unwrap();
    (spec.to_string(), report.cells().to_vec())
}

#[test]
fn cell_payloads_and_journal_lines_are_byte_stable() {
    let (spec, cells) = cells();
    assert_eq!(cells.len(), 4);
    let faulted = cells
        .iter()
        .flat_map(|c| c.report().reports())
        .flat_map(|r| r.records())
        .filter(|r| r.faults_active() > 0)
        .count();
    assert!(faulted > 0, "the fault axis must put faults on the wire");

    let payloads: Vec<String> = cells.iter().map(encode_cell).collect();
    for (payload, cell) in payloads.iter().zip(&cells) {
        assert_eq!(&decode_cell(payload).unwrap(), cell);
    }
    assert_matches_golden("wire_cells.txt", &payloads.concat());

    let dir = std::env::temp_dir().join(format!("teg-serve-wire-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut writer = CheckpointWriter::open(&dir, "golden", &spec, &policy_token(POLICY)).unwrap();
    for (cell, payload) in cells.iter().zip(&payloads) {
        writer.append(cell.key().index(), payload).unwrap();
    }
    drop(writer);
    let journal = fs::read_to_string(checkpoint_path(&dir, "golden")).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    assert_matches_golden("wire_journal.txt", &journal);
}
