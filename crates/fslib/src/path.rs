//! Path-level convenience helpers over the file-system traits.
//!
//! The traits work on `(directory inode, name)` pairs, like a kernel VFS.
//! Workloads and examples want `"/usr/src/lib/io.c"`-style paths; these
//! helpers provide that layer. Helpers that need only base operations
//! take any [`ConcurrentFs`] (a volume set included) and are safe to call
//! from many threads at once; [`write_file`] (it truncates) and
//! [`remove_tree`] (it needs `rmdir`) take a [`FileSystem`].

use crate::error::{FsError, FsResult};
use crate::vfs::{ConcurrentFs, FileKind, FileSystem, Ino};

/// Split a path into components, ignoring empty segments and leading `/`.
pub fn components(path: &str) -> Vec<&str> {
    path.split('/').filter(|c| !c.is_empty() && *c != ".").collect()
}

/// Resolve a path to an inode.
pub fn resolve(fs: &(impl ConcurrentFs + ?Sized), path: &str) -> FsResult<Ino> {
    let mut cur = fs.root();
    for c in components(path) {
        cur = fs.lookup(cur, c)?;
    }
    Ok(cur)
}

/// Resolve the parent directory of a path; returns `(parent_ino, leaf_name)`.
pub fn resolve_parent<'p>(
    fs: &(impl ConcurrentFs + ?Sized),
    path: &'p str,
) -> FsResult<(Ino, &'p str)> {
    let comps = components(path);
    let (leaf, dirs) = comps.split_last().ok_or(FsError::InvalidArg)?;
    let mut cur = fs.root();
    for c in dirs {
        cur = fs.lookup(cur, c)?;
    }
    Ok((cur, leaf))
}

/// `mkdir -p`: create every missing directory along `path`; returns the
/// final directory's inode. Loses no race: a concurrent creator of the
/// same component turns this thread's `mkdir` into `Exists`, which
/// resolves to the winner's directory.
pub fn mkdir_p(fs: &(impl ConcurrentFs + ?Sized), path: &str) -> FsResult<Ino> {
    let mut cur = fs.root();
    for c in components(path) {
        cur = match fs.lookup(cur, c) {
            Ok(ino) => {
                if fs.getattr(ino)?.kind != FileKind::Dir {
                    return Err(FsError::NotDir);
                }
                ino
            }
            Err(FsError::NotFound) => match fs.mkdir(cur, c) {
                Ok(ino) => ino,
                Err(FsError::Exists) => fs.lookup(cur, c)?,
                Err(e) => return Err(e),
            },
            Err(e) => return Err(e),
        };
    }
    Ok(cur)
}

/// Create (or truncate) the file at `path` and write `data` to it.
/// Returns the file's inode.
pub fn write_file(fs: &(impl FileSystem + ?Sized), path: &str, data: &[u8]) -> FsResult<Ino> {
    let (dir, name) = resolve_parent(fs, path)?;
    let ino = match fs.lookup(dir, name) {
        Ok(existing) => {
            fs.truncate(existing, 0)?;
            existing
        }
        Err(FsError::NotFound) => fs.create(dir, name)?,
        Err(e) => return Err(e),
    };
    let mut off = 0u64;
    while (off as usize) < data.len() {
        let n = fs.write(ino, off, &data[off as usize..])?;
        if n == 0 {
            return Err(FsError::Io("short write".into()));
        }
        off += n as u64;
    }
    Ok(ino)
}

/// Read the whole file at `path`.
pub fn read_file(fs: &(impl ConcurrentFs + ?Sized), path: &str) -> FsResult<Vec<u8>> {
    let ino = resolve(fs, path)?;
    read_all(fs, ino)
}

/// Read the whole file with inode `ino`.
pub fn read_all(fs: &(impl ConcurrentFs + ?Sized), ino: Ino) -> FsResult<Vec<u8>> {
    let size = fs.getattr(ino)?.size as usize;
    let mut out = vec![0u8; size];
    let mut off = 0usize;
    while off < size {
        let n = fs.read(ino, off as u64, &mut out[off..])?;
        if n == 0 {
            break;
        }
        off += n;
    }
    out.truncate(off);
    Ok(out)
}

/// Remove the file at `path`.
pub fn remove_file(fs: &(impl ConcurrentFs + ?Sized), path: &str) -> FsResult<()> {
    let (dir, name) = resolve_parent(fs, path)?;
    fs.unlink(dir, name)
}

/// Recursively delete a directory tree rooted at `path` (like `rm -rf`,
/// but failing on errors rather than ignoring them).
pub fn remove_tree(fs: &(impl FileSystem + ?Sized), path: &str) -> FsResult<()> {
    let (parent, name) = resolve_parent(fs, path)?;
    let ino = fs.lookup(parent, name)?;
    remove_tree_inner(fs, ino)?;
    fs.rmdir(parent, name)
}

fn remove_tree_inner(fs: &(impl FileSystem + ?Sized), dir: Ino) -> FsResult<()> {
    for e in fs.readdir(dir)? {
        match e.kind {
            FileKind::File => fs.unlink(dir, &e.name)?,
            FileKind::Dir => {
                remove_tree_inner(fs, e.ino)?;
                fs.rmdir(dir, &e.name)?;
            }
        }
    }
    Ok(())
}

/// Walk a tree depth-first, invoking `visit(path, ino, kind)` for every
/// entry below `root_path`.
pub fn walk(
    fs: &(impl ConcurrentFs + ?Sized),
    root_path: &str,
    visit: &mut dyn FnMut(&str, Ino, FileKind),
) -> FsResult<()> {
    let root = resolve(fs, root_path)?;
    let base = root_path.trim_end_matches('/').to_string();
    walk_inner(fs, root, &base, visit)
}

fn walk_inner(
    fs: &(impl ConcurrentFs + ?Sized),
    dir: Ino,
    prefix: &str,
    visit: &mut dyn FnMut(&str, Ino, FileKind),
) -> FsResult<()> {
    for e in fs.readdir(dir)? {
        let p = format!("{prefix}/{}", e.name);
        visit(&p, e.ino, e.kind);
        if e.kind == FileKind::Dir {
            walk_inner(fs, e.ino, &p, visit)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelFs;

    #[test]
    fn components_normalizes() {
        assert_eq!(components("/a/b/c"), vec!["a", "b", "c"]);
        assert_eq!(components("a//b/"), vec!["a", "b"]);
        assert_eq!(components("/"), Vec::<&str>::new());
        assert_eq!(components("./a/./b"), vec!["a", "b"]);
    }

    #[test]
    fn mkdir_p_and_resolve() {
        let fs = ModelFs::new();
        let d = mkdir_p(&fs, "/usr/src/lib").unwrap();
        assert_eq!(resolve(&fs, "/usr/src/lib").unwrap(), d);
        // Idempotent.
        assert_eq!(mkdir_p(&fs, "/usr/src/lib").unwrap(), d);
        let (parent, leaf) = resolve_parent(&fs, "/usr/src/lib").unwrap();
        assert_eq!(resolve(&fs, "/usr/src").unwrap(), parent);
        assert_eq!(leaf, "lib");
    }

    #[test]
    fn write_then_read_file() {
        let fs = ModelFs::new();
        mkdir_p(&fs, "/tmp").unwrap();
        write_file(&fs, "/tmp/hello.txt", b"hello world").unwrap();
        assert_eq!(read_file(&fs, "/tmp/hello.txt").unwrap(), b"hello world");
        // Overwrite truncates.
        let ino = write_file(&fs, "/tmp/hello.txt", b"bye").unwrap();
        assert_eq!(read_file(&fs, "/tmp/hello.txt").unwrap(), b"bye");
        assert_eq!(read_all(&fs, ino).unwrap(), b"bye");
        remove_file(&fs, "/tmp/hello.txt").unwrap();
        assert_eq!(resolve(&fs, "/tmp/hello.txt"), Err(FsError::NotFound));
    }

    #[test]
    fn remove_tree_removes_everything() {
        let fs = ModelFs::new();
        mkdir_p(&fs, "/a/b/c").unwrap();
        write_file(&fs, "/a/x", b"1").unwrap();
        write_file(&fs, "/a/b/y", b"2").unwrap();
        write_file(&fs, "/a/b/c/z", b"3").unwrap();
        remove_tree(&fs, "/a").unwrap();
        assert_eq!(resolve(&fs, "/a"), Err(FsError::NotFound));
    }

    #[test]
    fn walk_visits_all() {
        let fs = ModelFs::new();
        mkdir_p(&fs, "/src/sub").unwrap();
        write_file(&fs, "/src/a.c", b"x").unwrap();
        write_file(&fs, "/src/sub/b.c", b"y").unwrap();
        let mut seen = Vec::new();
        walk(&fs, "/src", &mut |p, _, _| seen.push(p.to_string())).unwrap();
        seen.sort();
        assert_eq!(seen, vec!["/src/a.c", "/src/sub", "/src/sub/b.c"]);
    }

    #[test]
    fn resolve_parent_of_root_is_error() {
        let fs = ModelFs::new();
        assert_eq!(resolve_parent(&fs, "/").unwrap_err(), FsError::InvalidArg);
    }

    #[test]
    fn mkdir_p_through_file_fails() {
        let fs = ModelFs::new();
        write_file(&fs, "/f", b"").unwrap();
        assert_eq!(mkdir_p(&fs, "/f/sub"), Err(FsError::NotDir));
    }

    #[test]
    fn mkdir_p_races_cleanly() {
        let fs = ModelFs::new();
        let dirs: Vec<Ino> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let fs = &fs;
                    scope.spawn(move || {
                        // Everyone races to create the same tree, then
                        // writes a private file under it.
                        let d = mkdir_p(fs, "/shared/tree").unwrap();
                        write_file(fs, &format!("/shared/tree/t{t}"), b"x").unwrap();
                        d
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        // All racers converged on one directory inode.
        assert!(dirs.windows(2).all(|w| w[0] == w[1]));
        for t in 0..4 {
            assert_eq!(read_file(&fs, &format!("/shared/tree/t{t}")).unwrap(), b"x");
        }
    }
}
