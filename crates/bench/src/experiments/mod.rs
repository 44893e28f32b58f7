//! One module per reproduced table/figure. Each exposes one entry point,
//! `report(..) -> (String, Json)`: the formatted text report and the
//! `BENCH_*.json` payload. The `repro` binary maps experiment names and
//! flags onto these functions, so `repro <name>` and `repro all` share
//! one implementation.
//!
//! | module | experiment | paper artifact |
//! |---|---|---|
//! | [`table1`] | E1 | Table 1: 1996 drive characteristics |
//! | [`fig2`] | E2 | Figure 2: access time vs request size |
//! | [`table2`] | E3 | Table 2: testbed drive (Seagate ST31200) |
//! | [`smallfile`] | E4/E5 | small-file benchmark, sync + soft updates |
//! | [`filesize`] | E6 | throughput vs file size |
//! | [`aging`] | E7 | performance after aging vs utilization |
//! | [`diskreqs`] | E8 | disk-request and sync-write accounting |
//! | [`apps`] | E9 | software-development application suite |
//! | [`dirsize`] | E10 | directory growth and inode-capacity trade |
//! | [`ablation`] | E11 (extra) | design-choice sweeps: group size, read threshold, scheduler, cache size, access order, prefetch |
//! | [`postmark`] | E12 (extra) | PostMark-style server workload |
//! | [`aging_regroup`] | E13 (extra) | online regrouping after adversarial aging |
//! | [`concurrent`] | E14 (extra) | multi-threaded scaling on disjoint cylinder groups |
//! | [`namei`] | E15 (extra) | million-file deep-tree name resolution, namespace cache vs scan |
//! | [`volume`] | E16 (extra) | scale-out volume sets: multi-disk striping, sharded metadata, multi-client sessions |

pub mod ablation;
pub mod aging;
pub mod aging_regroup;
pub mod apps;
pub mod concurrent;
pub mod dirsize;
pub mod diskreqs;
pub mod fig2;
pub mod filesize;
pub mod namei;
pub mod postmark;
pub mod smallfile;
pub mod table1;
pub mod table2;
pub mod volume;
