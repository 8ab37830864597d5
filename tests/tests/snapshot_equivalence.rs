//! Snapshot/restore equivalence suite: on every (golden workload ×
//! evaluation configuration) cell, a run that is snapshotted at its
//! halfway point and restored into a **fresh** machine — no kernel
//! setup, no warm state — must finish with the exact statistics,
//! register digest and verified memory contents of an uninterrupted
//! run. Any divergence would mean the snapshot missed state the
//! simulation depends on.
//!
//! A second group attacks the container itself: truncations, bit
//! flips, wrong magic, old and future format versions and malformed
//! memory page tables must all surface as typed [`SnapshotError`]s from
//! [`Machine::restore`] — never a panic, and never a silently
//! half-restored machine being *accepted*.

use tm3270_core::{Machine, MachineConfig, RunOptions, Snapshot, SnapshotError};
use tm3270_encode::snapshot::{snapshot_checksum, SNAPSHOT_VERSION};
use tm3270_kernels::registry;

/// Builds the machine for one cell. `setup` controls whether the
/// kernel's input state is installed — the restore target skips it to
/// prove the snapshot carries everything.
fn build_cell(workload: &tm3270_kernels::Workload, config: &MachineConfig, setup: bool) -> Machine {
    let program = workload.build(&config.issue).unwrap();
    let mut m = Machine::new(config.clone(), program).unwrap();
    if setup {
        workload.kernel().setup(&mut m);
    }
    m
}

/// Every cell: run to completion; re-run to the halfway cycle, snapshot,
/// restore into a fresh un-setup machine, run to completion again; the
/// two completions must be bit-identical.
#[test]
fn a_mid_run_snapshot_restores_to_a_bit_identical_completion() {
    let configs = MachineConfig::evaluation_suite();
    let mut cells = 0usize;
    for workload in registry(1).iter().filter(|w| w.is_golden()) {
        for config in &configs {
            let cell = format!("{} on {}", workload.name(), config.name);

            // The uninterrupted reference run.
            let mut reference = build_cell(workload, config, true);
            let ref_stats = reference
                .run_with(RunOptions::budget(workload.cycle_budget()))
                .into_result()
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            let ref_digest = reference.reg_digest();

            // The interrupted run: stop halfway (the budget trips as a
            // CycleLimit, leaving the machine intact) and snapshot.
            let mut interrupted = build_cell(workload, config, true);
            let half = ref_stats.cycles / 2;
            let outcome = interrupted.run_with(RunOptions::budget(half)).into_result();
            assert!(
                matches!(outcome, Err(tm3270_core::SimError::CycleLimit { .. })),
                "{cell}: expected the half budget to trip, got {outcome:?}"
            );
            let snapshot = interrupted.snapshot();

            // Restore into a fresh machine with NO kernel setup: if the
            // snapshot missed any state (registers, caches, prefetch,
            // DRAM timing, write ring, flat memory), the continuation
            // diverges.
            let mut restored = build_cell(workload, config, false);
            restored
                .restore(&snapshot)
                .unwrap_or_else(|e| panic!("{cell}: restore failed: {e}"));
            assert_eq!(restored.cycle(), interrupted.cycle(), "{cell}: cycle");
            assert_eq!(restored.pc(), interrupted.pc(), "{cell}: pc");
            let final_stats = restored
                .run_with(RunOptions::budget(workload.cycle_budget()))
                .into_result()
                .unwrap_or_else(|e| panic!("{cell}: continuation failed: {e}"));

            assert_eq!(final_stats, ref_stats, "{cell}: stats diverged");
            assert_eq!(restored.reg_digest(), ref_digest, "{cell}: reg digest");
            restored
                .kernel_verify(workload)
                .unwrap_or_else(|e| panic!("{cell}: verify failed: {e}"));
            cells += 1;
        }
    }
    assert_eq!(cells, 44, "every evaluation cell was exercised");
}

/// Gives tests a verify entry point without re-importing the kernel
/// trait everywhere.
trait KernelVerify {
    fn kernel_verify(&self, workload: &tm3270_kernels::Workload) -> Result<(), String>;
}

impl KernelVerify for Machine {
    fn kernel_verify(&self, workload: &tm3270_kernels::Workload) -> Result<(), String> {
        workload.kernel().verify(self).map_err(|e| e.to_string())
    }
}

/// A snapshot taken at the moment of completion round-trips through hex
/// and restores exactly (pc, cycle, digest).
#[test]
fn snapshots_round_trip_through_hex() {
    let config = &MachineConfig::evaluation_suite()[0];
    let workload = &registry(1)[0];
    let mut m = build_cell(workload, config, true);
    m.run_with(RunOptions::budget(workload.cycle_budget()))
        .into_result()
        .unwrap();
    let snapshot = m.snapshot();
    let back = Snapshot::from_hex(&snapshot.to_hex()).unwrap();
    assert_eq!(snapshot, back);

    let mut restored = build_cell(workload, config, false);
    restored.restore(&back).unwrap();
    assert_eq!(restored.cycle(), m.cycle());
    assert_eq!(restored.pc(), m.pc());
    assert_eq!(restored.reg_digest(), m.reg_digest());
}

/// Truncating a snapshot at any point yields a typed error — never a
/// panic, never an accepted restore.
#[test]
fn every_truncation_is_rejected_with_a_typed_error() {
    let config = &MachineConfig::evaluation_suite()[0];
    let workload = &registry(1)[0];
    let mut m = build_cell(workload, config, true);
    let _ = m.run_with(RunOptions::budget(200)).into_result();
    let bytes = m.snapshot().into_bytes();

    let mut target = build_cell(workload, config, false);
    let cuts = (0..bytes.len()).filter(|&len| len < 128 || len % 97 == 0 || len + 16 > bytes.len());
    for len in cuts {
        let cut = Snapshot::from_bytes(bytes[..len].to_vec());
        let err = target
            .restore(&cut)
            .expect_err("a truncated snapshot must not restore");
        // Every failure is one of the typed variants; rendering it must
        // not panic either.
        let _ = err.to_string();
    }
}

/// Flipping any byte trips the checksum (or an earlier framing check).
#[test]
fn corrupted_snapshots_fail_the_checksum() {
    let config = &MachineConfig::evaluation_suite()[0];
    let workload = &registry(1)[0];
    let mut m = build_cell(workload, config, true);
    let _ = m.run_with(RunOptions::budget(200)).into_result();
    let bytes = m.snapshot().into_bytes();

    let mut target = build_cell(workload, config, false);
    for at in (0..bytes.len()).step_by(211) {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x20;
        let err = target
            .restore(&Snapshot::from_bytes(corrupt))
            .expect_err("a corrupted snapshot must not restore");
        let _ = err.to_string();
    }
}

/// A snapshot from a future or a retired format version is refused as a
/// version mismatch — even when its checksum is valid — and wrong magic
/// is refused outright.
#[test]
fn foreign_headers_are_refused() {
    let config = &MachineConfig::evaluation_suite()[0];
    let workload = &registry(1)[0];
    let mut m = build_cell(workload, config, true);
    let _ = m.run_with(RunOptions::budget(200)).into_result();
    let bytes = m.snapshot().into_bytes();
    let mut target = build_cell(workload, config, false);

    // Bump the version and re-seal the checksum so only the version
    // check can object.
    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    let body_len = future.len() - 8;
    let sum = snapshot_checksum(&future[..body_len]);
    future[body_len..].copy_from_slice(&sum.to_le_bytes());
    assert_eq!(
        target.restore(&Snapshot::from_bytes(future)),
        Err(SnapshotError::VersionMismatch {
            found: SNAPSHOT_VERSION + 1,
            expected: SNAPSHOT_VERSION
        })
    );

    // A hand-built version-1 blob (memory as a dense prefix) is refused
    // the same way: there is no second reader.
    let mut v1_mems = Vec::new();
    v1_mems.extend_from_slice(&(16u64 << 20).to_le_bytes()); // memory size
    v1_mems.extend_from_slice(&4u64.to_le_bytes()); // stored prefix length
    v1_mems.extend_from_slice(&[1, 2, 3, 4]); // the prefix
    assert_eq!(
        target.restore(&seal(1, &[(*b"MEMS", v1_mems)])),
        Err(SnapshotError::VersionMismatch {
            found: 1,
            expected: SNAPSHOT_VERSION
        })
    );

    let mut alien = bytes;
    alien[..4].copy_from_slice(b"NOPE");
    assert_eq!(
        target.restore(&Snapshot::from_bytes(alien)),
        Err(SnapshotError::BadMagic)
    );
}

/// The sections of a sealed blob as `(tag, payload)` pairs.
fn sections(bytes: &[u8]) -> Vec<([u8; 4], Vec<u8>)> {
    let body = &bytes[..bytes.len() - 8];
    let mut out = Vec::new();
    let mut at = 8;
    while at < body.len() {
        let tag: [u8; 4] = body[at..at + 4].try_into().unwrap();
        let len = u64::from_le_bytes(body[at + 4..at + 12].try_into().unwrap()) as usize;
        out.push((tag, body[at + 12..at + 12 + len].to_vec()));
        at += 12 + len;
    }
    out
}

/// Frames `sections` behind a header of format `version` and re-seals
/// the blob with [`snapshot_checksum`], so only checks past the
/// checksum can object to its contents.
fn seal(version: u32, sections: &[([u8; 4], Vec<u8>)]) -> Snapshot {
    let mut out = b"TM3S".to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    for (tag, payload) in sections {
        out.extend_from_slice(tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
    }
    let sum = snapshot_checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    Snapshot::from_bytes(out)
}

/// The `MEMS` payload of a sealed blob.
fn mems_payload(bytes: &[u8]) -> Vec<u8> {
    let mut secs = sections(bytes);
    secs.retain(|(tag, _)| tag == b"MEMS");
    secs.pop().unwrap().1
}

/// `bytes` with its `MEMS` payload rewritten by `edit`, re-sealed.
fn with_mems(bytes: &[u8], mut edit: impl FnMut(&mut Vec<u8>)) -> Snapshot {
    let mut secs = sections(bytes);
    for (tag, payload) in &mut secs {
        if tag == b"MEMS" {
            edit(payload);
        }
    }
    seal(SNAPSHOT_VERSION, &secs)
}

fn get_u64(payload: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(payload[at..at + 8].try_into().unwrap())
}

fn put_u64(payload: &mut [u8], at: usize, v: u64) {
    payload[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Byte offset, inside a `MEMS` payload, of page-table entry `i` (its
/// `u64` memory offset; the page bytes follow). The table starts after
/// the memory size and the page count.
fn entry_at(i: usize, page: usize) -> usize {
    16 + i * (8 + page)
}

/// Every way a page table can lie — unsorted, duplicated, misaligned
/// or out-of-range offsets, and a page count the bytes cannot back —
/// is a typed error, even in a blob whose checksum is valid.
#[test]
fn malformed_page_tables_are_typed_errors() {
    let config = &MachineConfig::evaluation_suite()[0];
    let workload = &registry(1)[0];
    let mut m = build_cell(workload, config, true);
    let _ = m.run_with(RunOptions::budget(200)).into_result();
    let bytes = m.snapshot().into_bytes();
    let page = m.mem().flat().page_len();
    let size = m.config().mem.mem_size as u64;
    let mut target = build_cell(workload, config, false);

    let mems = &mems_payload(&bytes);
    let count = get_u64(mems, 8) as usize;
    assert!(count >= 2, "the fixture needs two pages to reorder");
    // The re-framing itself is faithful: an unedited copy restores.
    target.restore(&with_mems(&bytes, |_| {})).unwrap();

    // (case, entry whose offset is rewritten, the offset written).
    let (first, second) = (
        get_u64(mems, entry_at(0, page)),
        get_u64(mems, entry_at(1, page)),
    );
    let cases = [
        ("unsorted", 0, second + page as u64),
        ("duplicated", 1, first),
        ("misaligned", 0, first + 1),
        ("out of range", count - 1, size),
    ];
    for (name, entry, offset) in cases {
        let edited = with_mems(&bytes, |p| put_u64(p, entry_at(entry, page), offset));
        let err = target.restore(&edited).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Corrupt { .. }),
            "{name} offsets: {err}"
        );
    }

    // One page more than the bytes present: the table ends where the
    // extra entry should start.
    let short = with_mems(&bytes, |p| {
        put_u64(p, 8, count as u64 + 1);
        p.truncate(entry_at(count, page));
    });
    assert!(matches!(
        target.restore(&short),
        Err(SnapshotError::Truncated { .. })
    ));
    // More pages than the whole memory holds is refused up front.
    let huge = with_mems(&bytes, |p| put_u64(p, 8, u64::MAX));
    assert!(matches!(
        target.restore(&huge),
        Err(SnapshotError::Corrupt { .. })
    ));
}

/// Runs every golden kernel on `config` to completion, and again to the
/// halfway cycle, restoring that state into a fresh un-setup machine:
/// both completions must agree on stats, registers and every byte of
/// memory. Returns the last kernel's halfway snapshot and the memory
/// contents it captured.
fn mid_run_round_trips(config: &MachineConfig) -> (Vec<u8>, Vec<u8>) {
    let size = config.mem.mem_size;
    let mut last = (Vec::new(), Vec::new());
    for workload in registry(1).iter().filter(|w| w.is_golden()) {
        let cell = format!("{} on {}", workload.name(), config.mem.mem_size);
        let mut reference = build_cell(workload, config, true);
        let ref_stats = reference
            .run_with(RunOptions::budget(workload.cycle_budget()))
            .into_result()
            .unwrap_or_else(|e| panic!("{cell}: {e}"));

        let mut interrupted = build_cell(workload, config, true);
        let _ = interrupted
            .run_with(RunOptions::budget(ref_stats.cycles / 2))
            .into_result();
        let snapshot = interrupted.snapshot();
        let mut restored = build_cell(workload, config, false);
        restored
            .restore(&snapshot)
            .unwrap_or_else(|e| panic!("{cell}: restore failed: {e}"));
        let final_stats = restored
            .run_with(RunOptions::budget(workload.cycle_budget()))
            .into_result()
            .unwrap_or_else(|e| panic!("{cell}: continuation failed: {e}"));

        assert_eq!(final_stats, ref_stats, "{cell}: stats diverged");
        assert_eq!(restored.reg_digest(), reference.reg_digest(), "{cell}");
        assert!(
            restored.read_data(0, size) == reference.read_data(0, size),
            "{cell}: memory diverged"
        );
        last = (snapshot.into_bytes(), interrupted.read_data(0, size));
    }
    last
}

/// The fault campaign's 64 KB machines round-trip mid-run. The kernels'
/// buffers wrap inside the small address space; the page table holds
/// exactly the 4 KiB pages that hold a non-zero byte.
#[test]
fn a_64k_machine_round_trips_mid_run() {
    let mut config = MachineConfig::tm3270();
    config.mem.mem_size = 1 << 16;
    let (bytes, memory) = mid_run_round_trips(&config);
    let nonzero = memory
        .chunks(4096)
        .filter(|p| p.iter().any(|&b| b != 0))
        .count();
    assert!(nonzero > 0, "the fixture needs data");
    assert_eq!(get_u64(&mems_payload(&bytes), 8), nonzero as u64);
}

/// Memories smaller than one page use a page of the whole memory size,
/// on the writer and the reader alike: one entry at offset 0 holding
/// every byte.
#[test]
fn sub_page_memories_store_one_whole_memory_page() {
    let mut config = MachineConfig::tm3270();
    config.mem.mem_size = 1 << 10;
    let (bytes, memory) = mid_run_round_trips(&config);
    assert!(memory.iter().any(|&b| b != 0), "the fixture needs data");

    let mems = &mems_payload(&bytes);
    assert_eq!(get_u64(mems, 0), 1 << 10, "memory size");
    assert_eq!(get_u64(mems, 8), 1, "page count");
    assert_eq!(get_u64(mems, 16), 0, "page offset");
    assert_eq!(&mems[24..24 + (1 << 10)], &memory[..], "page bytes");
}
