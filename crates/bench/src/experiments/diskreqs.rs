//! E8 — disk-request accounting.
//!
//! The paper's mechanism claims, checked directly against the counters:
//!
//! * "The improvement comes directly from reducing the number of disk
//!   accesses required by an order of magnitude" (read phase).
//! * Embedded inodes remove one synchronous write per create/delete —
//!   "for file systems that use synchronous writes to ensure proper
//!   sequencing, this can result in a two-fold performance improvement
//!   [Ganger94]" — and give "a 250% increase in file deletion throughput".
//! * "Embedding inodes halves the number of blocks actually dirtied when
//!   removing the files because there are no separate inode blocks."

use crate::experiments::smallfile::{rows_payload, run_all};
use crate::report::header;
use cffs_fslib::MetadataMode;
use cffs_obs::json::Json;
use cffs_obs::Ctr;
use cffs_workloads::smallfile::SmallFileParams;
use cffs_workloads::PhaseResult;

fn find<'a>(rows: &'a [PhaseResult], fs: &str, phase: &str) -> &'a PhaseResult {
    rows.iter().find(|r| r.fs == fs && r.phase == phase).expect("row present")
}

/// Run once, rendering both the text report and the JSON payload.
pub fn report(params: SmallFileParams) -> (String, Json) {
    let rows = run_all(MetadataMode::Synchronous, params);
    let mut json = rows_payload(MetadataMode::Synchronous, params, &rows);
    if let Json::Obj(m) = &mut json {
        if let Some(e) = m.iter_mut().find(|(k, _)| k == "experiment") {
            e.1 = Json::Str("diskreqs".to_string());
        }
    }
    let mut out = header(&format!(
        "disk-request accounting ({} x {} B, synchronous metadata)",
        params.nfiles, params.file_size
    ));
    out.push_str(&format!(
        "{:<18} {:>10} {:>12} {:>12} {:>12} {:>14}\n",
        "file system", "phase", "disk reads", "disk writes", "sync writes", "group reads"
    ));
    out.push_str(&"-".repeat(82));
    out.push('\n');
    for r in &rows {
        out.push_str(&format!(
            "{:<18} {:>10} {:>12} {:>12} {:>12} {:>14}\n",
            r.fs,
            r.phase,
            r.counter(Ctr::DiskReads),
            r.counter(Ctr::DiskWrites),
            r.counter(Ctr::CacheSyncFlushes),
            r.counter(Ctr::CacheGroupReads),
        ));
    }

    let conv_read = find(&rows, "conventional", "read");
    let cffs_read = find(&rows, "C-FFS", "read");
    let conv_create = find(&rows, "conventional", "create");
    let emb_create = find(&rows, "embedded inodes", "create");
    let conv_del = find(&rows, "conventional", "delete");
    let emb_del = find(&rows, "embedded inodes", "delete");
    let sync_per_create = |r: &PhaseResult| {
        r.counter(Ctr::CacheSyncFlushes) as f64 / params.nfiles as f64
    };
    let dirtied =
        |r: &PhaseResult| r.counter(Ctr::CacheWritebacks) + r.counter(Ctr::CacheSyncFlushes);

    out.push_str(&format!(
        "\nclaims vs counters:\n\
         - read-phase disk requests: {} -> {} ({:.1}x reduction; paper: order of magnitude)\n\
         - sync writes per create: {:.2} -> {:.2} (embedding removes one of two)\n\
         - delete throughput: {:.0}/s -> {:.0}/s (+{:.0}%; paper: +250%)\n\
         - blocks dirtied during delete: {} -> {} ({:.2}x; paper: halved)\n",
        conv_read.disk_requests(),
        cffs_read.disk_requests(),
        conv_read.disk_requests() as f64 / cffs_read.disk_requests() as f64,
        sync_per_create(conv_create),
        sync_per_create(emb_create),
        conv_del.items_per_sec(),
        emb_del.items_per_sec(),
        (emb_del.items_per_sec() / conv_del.items_per_sec() - 1.0) * 100.0,
        dirtied(conv_del),
        dirtied(emb_del),
        dirtied(conv_del) as f64 / dirtied(emb_del).max(1) as f64,
    ));
    (out, json)
}
