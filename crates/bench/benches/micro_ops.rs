//! Micro-benchmarks of the hot file-system operations, run on both C-FFS
//! and the classic FFS baseline. These measure *implementation* speed
//! (wall-clock of the Rust code), complementing the `repro_*` binaries
//! which report *simulated* time.

use cffs::build;
use cffs::core::CffsConfig;
use cffs::ffs::FfsOptions;
use cffs::prelude::*;
use cffs_bench::microbench::{bench, bench_with_setup};
use cffs_disksim::models;
use std::hint::black_box;

fn fresh_cffs() -> impl FileSystem {
    build::on_disk(models::tiny_test_disk(), CffsConfig::cffs())
}

fn fresh_ffs() -> impl FileSystem {
    build::ffs_on_disk(models::tiny_test_disk(), FfsOptions::default())
}

fn bench_create() {
    bench_with_setup("create/cffs", 300, fresh_cffs, |fs| {
        let root = fs.root();
        let dir = fs.mkdir(root, "d").unwrap();
        for i in 0..200 {
            black_box(fs.create(dir, &format!("f{i}")).unwrap());
        }
    });
    bench_with_setup("create/ffs", 300, fresh_ffs, |fs| {
        let root = fs.root();
        let dir = fs.mkdir(root, "d").unwrap();
        for i in 0..200 {
            black_box(fs.create(dir, &format!("f{i}")).unwrap());
        }
    });
}

fn bench_lookup() {
    let fs = fresh_cffs();
    let root = fs.root();
    let dir = fs.mkdir(root, "d").unwrap();
    for i in 0..500 {
        fs.create(dir, &format!("f{i}")).unwrap();
    }
    bench("lookup/cffs_warm_500_entries", 300, || {
        for i in (0..500).step_by(7) {
            black_box(fs.lookup(dir, &format!("f{i}")).unwrap());
        }
    });
}

fn bench_write_read() {
    let fs = fresh_cffs();
    let root = fs.root();
    let ino = fs.create(root, "big").unwrap();
    let data = vec![0xA5u8; 64 * 1024];
    let mut buf = vec![0u8; 64 * 1024];
    bench("write_read_64k/cffs_overwrite_and_read", 300, || {
        fs.write(ino, 0, black_box(&data)).unwrap();
        black_box(fs.read(ino, 0, &mut buf).unwrap());
    });
}

fn bench_readdir() {
    let fs = fresh_cffs();
    let root = fs.root();
    let dir = fs.mkdir(root, "big").unwrap();
    for i in 0..1000 {
        fs.create(dir, &format!("entry{i:04}")).unwrap();
    }
    bench("readdir_1000/cffs", 300, || {
        black_box(fs.readdir(dir).unwrap().len())
    });
}

fn main() {
    bench_create();
    bench_lookup();
    bench_write_read();
    bench_readdir();
}
