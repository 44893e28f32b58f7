//! One micro-bench per paper table/figure: each runs a scaled-down
//! version of the corresponding `repro` experiment, so `cargo bench`
//! exercises every reproduction end to end and tracks its wall-clock cost.
//! (The full-size runs and the reported numbers come from the `repro`
//! binary; see EXPERIMENTS.md.)

use cffs_bench::experiments;
use cffs_bench::microbench::bench;
use cffs_fslib::MetadataMode;
use cffs_workloads::appdev::DevTreeParams;
use cffs_workloads::smallfile::SmallFileParams;
use std::hint::black_box;

fn main() {
    bench("paper/e1_table1_drives", 200, || {
        black_box(experiments::table1::report().0)
    });
    bench("paper/e2_fig2_access_time", 200, || {
        black_box(experiments::fig2::report(50).0)
    });
    bench("paper/e3_table2_testbed", 200, || {
        black_box(experiments::table2::report().0)
    });

    let sf = SmallFileParams { nfiles: 300, ndirs: 20, ..SmallFileParams::default() };
    bench("paper/e4_smallfile_sync", 500, || {
        black_box(experiments::smallfile::report(MetadataMode::Synchronous, sf).0)
    });
    bench("paper/e5_smallfile_softdep", 500, || {
        black_box(experiments::smallfile::report(MetadataMode::Delayed, sf).0)
    });
    bench("paper/e6_filesize_point_8k", 500, || {
        black_box(experiments::filesize::point(
            cffs_core::CffsConfig::cffs(),
            black_box(8192),
        ))
    });
    bench("paper/e7_aging_point", 500, || {
        black_box(experiments::aging::point(cffs_core::CffsConfig::cffs(), 0.5, 2000))
    });
    bench("paper/e8_diskreqs", 500, || {
        black_box(experiments::diskreqs::report(sf).0)
    });
    let dev = DevTreeParams::small();
    bench("paper/e9_apps", 500, || {
        black_box(experiments::apps::report(MetadataMode::Synchronous, dev).0)
    });
    bench("paper/e10_dirsize_point", 200, || {
        // One population point of the E10 sweep.
        let fs = cffs::build::on_disk(
            cffs_disksim::models::tiny_test_disk(),
            cffs_core::CffsConfig::cffs(),
        );
        let root = fs.root();
        let dir = fs.mkdir(root, "d").unwrap();
        for i in 0..100 {
            fs.create(dir, &format!("file{i:05}")).unwrap();
        }
        black_box(fs.getattr(dir).unwrap().size)
    });
}
