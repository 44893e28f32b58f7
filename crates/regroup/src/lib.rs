#![warn(missing_docs)]

//! # cffs-regroup — the online regrouping engine
//!
//! The paper's small-file wins come entirely from explicit grouping, and
//! its Section 4 aging discussion concedes that grouping quality decays as
//! files are created and deleted: members of dissolved groups scatter,
//! directories end up with their files spread across many partially filled
//! extents, and the whole-group fetch degenerates toward one-block reads.
//! This crate turns grouping from a one-shot allocation policy into a
//! *maintained invariant*: a background pass that detects fragmented
//! directories and relocates their small-file blocks back into freshly
//! carved contiguous extents.
//!
//! ## How a pass works
//!
//! 1. **Scan** ([`plan`]): walk the namespace, and for every directory
//!    collect its small files' mapped blocks. A directory *needs
//!    regrouping* when its file blocks occupy more fetch units (distinct
//!    dir-owned group extents, plus each stray ungrouped block) than the
//!    ideal packing `ceil(blocks / group_blocks)` would.
//! 2. **Execute** ([`execute`]): for each planned directory, *keep* the
//!    fullest of its existing extents (as many as fit within the ideal
//!    count — their members stay put), fill the keeps' free slots, and
//!    carve fresh *empty* extents ([`Cffs::carve_group_for`]) for the
//!    rest, relocating blocks into consecutive slots via the two-step
//!    crash-safe protocol
//!    ([`Cffs::relocate_copy_forward`] then [`Cffs::relocate_commit`]):
//!    copy-forward and flush the data, durably rewrite the block pointer,
//!    only then free the old block. A crash at any tear point leaves the
//!    file system fsck-clean with byte-identical logical contents. Old
//!    extents dissolve automatically as their last members move out.
//! 3. **Budget** ([`RegroupConfig`]): `max_blocks` caps relocations per
//!    invocation; [`RegroupMode::IdleOnly`] restricts the pass to blocks
//!    already resident in the buffer cache, so it costs no extra read I/O.
//!
//! Directory blocks themselves are never relocated: embedded inode numbers
//! encode physical location, so moving a directory block would renumber
//! every inode embedded in it. Re-formed extents therefore hold file data
//! only — a planned directory converges in one pass and scores clean
//! afterwards (the pass is idempotent).
//!
//! The per-cylinder-group occupancy/traffic index the planner builds is
//! exposed as a [`heatmap`] for `cffs-inspect`.

pub mod heatmap;

use cffs_core::Cffs;
use cffs_core::layout::INO_ROOT;
use cffs_fslib::{FileKind, FsResult, Ino, BLOCK_SIZE};
use cffs_obs::json::Json;
use cffs_obs::{obj, Ctr, Sig};
use std::collections::{BTreeMap, BTreeSet};

/// How eagerly a pass may touch cold data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegroupMode {
    /// Only relocate blocks already resident in the buffer cache — the
    /// pass issues no source-read I/O (destination writes still happen).
    IdleOnly,
    /// Relocate cold blocks too, reading them through the cache.
    Aggressive,
}

/// Budget knobs for one regrouping invocation.
#[derive(Debug, Clone)]
pub struct RegroupConfig {
    /// Maximum blocks relocated in this invocation.
    pub max_blocks: usize,
    /// Idle-only vs. aggressive (see [`RegroupMode`]).
    pub mode: RegroupMode,
}

impl Default for RegroupConfig {
    fn default() -> Self {
        RegroupConfig { max_blocks: 256, mode: RegroupMode::Aggressive }
    }
}

impl RegroupConfig {
    /// An unbounded aggressive pass — restore everything in one call.
    pub fn exhaustive() -> Self {
        RegroupConfig { max_blocks: usize::MAX, mode: RegroupMode::Aggressive }
    }
}

/// One block relocation the planner proposes.
#[derive(Debug, Clone, Copy)]
pub struct BlockMove {
    /// File owning the block.
    pub ino: Ino,
    /// Logical block within the file.
    pub lbn: u64,
    /// Physical block at plan time.
    pub from: u64,
}

/// The planner's verdict on one fragmented directory.
#[derive(Debug, Clone)]
pub struct DirPlan {
    /// The directory whose files will be re-grouped.
    pub dir: Ino,
    /// File blocks to relocate, in namespace order.
    pub moves: Vec<BlockMove>,
    /// Distinct dir-owned extents the blocks currently occupy.
    pub extents_used: usize,
    /// Blocks outside any dir-owned extent.
    pub stray: usize,
    /// `ceil(blocks / group_blocks)` — the extent count ideal packing
    /// would need.
    pub ideal_extents: usize,
}

/// A dry-runnable relocation plan over the whole file system.
#[derive(Debug, Clone, Default)]
pub struct RegroupPlan {
    /// Fragmented directories, in namespace (breadth-first) order.
    pub dirs: Vec<DirPlan>,
    /// Directories scanned, fragmented or not.
    pub dirs_scanned: usize,
    /// Small-file blocks examined across all scanned directories.
    pub blocks_scanned: usize,
}

impl RegroupPlan {
    /// Total blocks the plan would relocate (before budgeting).
    pub fn total_blocks(&self) -> usize {
        self.dirs.iter().map(|d| d.moves.len()).sum()
    }

    /// Human-readable dry-run rendering (for `cffs-inspect regroup`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "regroup plan: {} of {} directories fragmented, {} of {} blocks to move\n",
            self.dirs.len(),
            self.dirs_scanned,
            self.total_blocks(),
            self.blocks_scanned,
        ));
        for d in &self.dirs {
            out.push_str(&format!(
                "  dir {:#x}: {} blocks in {} extents + {} stray (ideal {})\n",
                d.dir,
                d.moves.len(),
                d.extents_used,
                d.stray,
                d.ideal_extents,
            ));
        }
        out
    }

    /// JSON rendering (for plotting / scripting).
    pub fn to_json(&self) -> Json {
        obj![
            ("dirs_scanned", Json::Int(self.dirs_scanned as i64)),
            ("blocks_scanned", Json::Int(self.blocks_scanned as i64)),
            ("total_blocks", Json::Int(self.total_blocks() as i64)),
            (
                "dirs",
                Json::Arr(
                    self.dirs
                        .iter()
                        .map(|d| {
                            obj![
                                ("dir", Json::Int(d.dir as i64)),
                                ("blocks", Json::Int(d.moves.len() as i64)),
                                ("extents_used", Json::Int(d.extents_used as i64)),
                                ("stray", Json::Int(d.stray as i64)),
                                ("ideal_extents", Json::Int(d.ideal_extents as i64)),
                            ]
                        })
                        .collect(),
                )
            ),
        ]
    }
}

/// What one [`execute`] invocation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegroupOutcome {
    /// Blocks relocated (also bumped on `regroup_blocks_moved`).
    pub blocks_moved: usize,
    /// Fresh extents carved (also bumped on `regroup_groups_formed`).
    pub groups_formed: usize,
    /// Directories fully processed.
    pub dirs_regrouped: usize,
    /// Cold blocks skipped under [`RegroupMode::IdleOnly`].
    pub skipped_cold: usize,
    /// Blocks skipped because they vanished or were already in place.
    pub skipped_stale: usize,
    /// Directories abandoned because no contiguous extent could be carved.
    pub carve_failures: usize,
    /// True when `max_blocks` ran out before the plan did.
    pub budget_exhausted: bool,
}

/// Scan the namespace and score every directory's grouping quality.
///
/// Only *small* files participate — files of 1..=`group_blocks` data
/// blocks, the population the allocator itself groups. Empty files,
/// large (degrouped) files, multiply-linked files (no unique home
/// directory — regrouping one link would ping-pong the data between the
/// linking directories' groups), and directories' own blocks are left
/// alone (directory blocks hold embedded inodes whose numbers encode
/// physical location, so they must not move).
pub fn plan(fs: &mut Cffs, _cfg: &RegroupConfig) -> FsResult<RegroupPlan> {
    let gb = fs.config().group_blocks as u64;
    let mut out = RegroupPlan::default();
    // Breadth-first namespace walk, readdir order — deterministic.
    let mut queue: Vec<Ino> = vec![INO_ROOT];
    let mut qi = 0;
    while qi < queue.len() {
        let dir = queue[qi];
        qi += 1;
        out.dirs_scanned += 1;
        let mut moves: Vec<BlockMove> = Vec::new();
        for ent in fs.readdir(dir)? {
            if ent.kind == FileKind::Dir {
                queue.push(ent.ino);
                continue;
            }
            let attr = fs.getattr(ent.ino)?;
            let nblocks = attr.size.div_ceil(BLOCK_SIZE as u64);
            if nblocks == 0 || nblocks > gb {
                continue;
            }
            // A multiply-linked file has no unique home directory: moving
            // it toward one link strands it as a stray for the other, and
            // two regrouping passes would ping-pong it forever. Leave it
            // wherever the allocator put it.
            if attr.nlink > 1 {
                continue;
            }
            for (lbn, from) in fs.file_block_map(ent.ino)? {
                moves.push(BlockMove { ino: ent.ino, lbn, from });
            }
        }
        out.blocks_scanned += moves.len();
        if moves.is_empty() {
            continue;
        }
        // Score: distinct dir-owned extents + stray blocks vs. ideal.
        let sb = fs.superblock().clone();
        let mut extents: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut stray = 0usize;
        for mv in &moves {
            match fs.group_index().group_of_block(&sb, mv.from) {
                Some(g) if g.owner == dir => {
                    extents.insert((g.cg, g.idx));
                }
                _ => stray += 1,
            }
        }
        let ideal = moves.len().div_ceil(gb as usize);
        if extents.len() + stray > ideal {
            out.dirs.push(DirPlan {
                dir,
                moves,
                extents_used: extents.len(),
                stray,
                ideal_extents: ideal,
            });
        }
    }
    Ok(out)
}

/// Execute a plan under the configured budget. Relocations use the
/// two-step crash-safe protocol; partially executed plans (budget
/// exhaustion, carve failure, crash) leave the file system consistent —
/// rerunning later resumes where this pass stopped.
///
/// Per directory, the pass first selects *keep* extents: the dir-owned
/// extents holding the most planned blocks, as many as fit within the
/// ideal extent count (each keep costs one extent but saves its members
/// from moving). Blocks already inside a keep stay put; everything else
/// fills the keeps' free slots, then freshly carved empty extents. The
/// final extent count is bounded by the ideal, so a full pass converges
/// in one shot with the minimum number of relocations — and a budgeted
/// pass resumes naturally, because the extents it part-filled rank as
/// member-rich keeps next time.
pub fn execute(fs: &mut Cffs, plan: &RegroupPlan, cfg: &RegroupConfig) -> FsResult<RegroupOutcome> {
    let gb = fs.config().group_blocks as usize;
    let sb = fs.superblock().clone();
    let mut out = RegroupOutcome::default();
    let mut budget = cfg.max_blocks;
    'dirs: for dp in &plan.dirs {
        // Planned blocks per dir-owned extent, at plan-time locations.
        let mut members: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        for mv in &dp.moves {
            if let Some(g) = fs.group_index().group_of_block(&sb, mv.from) {
                if g.owner == dp.dir {
                    *members.entry((g.cg, g.idx)).or_insert(0) += 1;
                }
            }
        }
        let n = dp.moves.len();
        let ideal = n.div_ceil(gb);
        // Greedy keep selection, fullest first: admit an extent only while
        // the projected final count (keeps + carves for the overflow)
        // stays within the ideal.
        let mut ranked: Vec<(usize, usize, (u32, u32))> = members
            .iter()
            .map(|(&k, &m)| {
                let slack = fs.group_index().get(k.0, k.1).map_or(0, |g| g.slack() as usize);
                (m, slack, k)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.2.cmp(&b.2)));
        let mut keeps: Vec<(u32, u32)> = Vec::new();
        let (mut kept_m, mut kept_free) = (0usize, 0usize);
        for &(m, slack, k) in &ranked {
            let to_place = n - (kept_m + m);
            let overflow = to_place.saturating_sub(kept_free + slack);
            if keeps.len() + 1 + overflow.div_ceil(gb) <= ideal {
                keeps.push(k);
                kept_m += m;
                kept_free += slack;
            }
        }
        let keep_set: BTreeSet<(u32, u32)> = keeps.iter().copied().collect();
        let mut targets = keeps.into_iter();
        let mut key: Option<(u32, u32)> = None;
        for mv in &dp.moves {
            // A block already inside a kept extent is in final position.
            let home = fs
                .group_index()
                .group_of_block(&sb, mv.from)
                .filter(|g| g.owner == dp.dir)
                .map(|g| (g.cg, g.idx));
            if home.is_some_and(|k| keep_set.contains(&k)) {
                continue;
            }
            if budget == 0 {
                out.budget_exhausted = true;
                break 'dirs;
            }
            if cfg.mode == RegroupMode::IdleOnly && !fs.block_resident(mv.from) {
                out.skipped_cold += 1;
                continue;
            }
            // Advance the target whenever the current extent fills: next
            // keep with room, else carve a fresh empty extent.
            let full = key
                .and_then(|k| fs.group_index().get(k.0, k.1).copied())
                .is_none_or(|g| g.free_slot().is_none());
            if full {
                key = targets.find(|k| {
                    fs.group_index()
                        .get(k.0, k.1)
                        .is_some_and(|g| g.free_slot().is_some())
                });
                if key.is_none() {
                    key = fs.carve_group_for(dp.dir)?;
                    let Some(_) = key else {
                        out.carve_failures += 1;
                        continue 'dirs;
                    };
                    out.groups_formed += 1;
                }
            }
            match fs.relocate_block_into(mv.ino, mv.lbn, key.expect("selected above"))? {
                Some(_) => {
                    out.blocks_moved += 1;
                    budget -= 1;
                }
                None => out.skipped_stale += 1,
            }
        }
        out.dirs_regrouped += 1;
    }
    Ok(out)
}

/// Policy knobs for the signal-driven autotrigger
/// ([`autotrigger`]) — the loop that turns `group_fetch_util_ewma`
/// decay into budgeted regroup passes without explicit invocation.
#[derive(Debug, Clone)]
pub struct AutotriggerConfig {
    /// Fire when the group-fetch-utilization EWMA sits below this
    /// percentage.
    pub util_floor_pct: f64,
    /// Ignore the EWMA until it has folded in at least this many
    /// fetches (a handful of samples says nothing about decay).
    pub min_samples: u64,
    /// Relocation budget handed to each fired pass.
    pub budget_blocks: usize,
    /// Mode for fired passes. Defaults to [`RegroupMode::IdleOnly`]: the
    /// trigger runs inside live traffic, so it must not add read I/O.
    pub mode: RegroupMode,
}

impl Default for AutotriggerConfig {
    fn default() -> Self {
        AutotriggerConfig {
            util_floor_pct: 85.0,
            min_samples: 8,
            budget_blocks: 64,
            mode: RegroupMode::IdleOnly,
        }
    }
}

/// Check the stack's health signals and, if group-fetch utilization has
/// decayed below the configured floor, fire one budgeted regroup pass.
///
/// Call this from any convenient point in the serving loop (between
/// requests, after a sync, on a timer tick). The floor is armed on the
/// [`Sig::GroupFetchUtil`] signal, so each decay episode also leaves a
/// `signal.group_fetch_util.low` event in the trace ring; every fired
/// pass bumps `regroup_autotriggers` and drops a `regroup.autotrigger`
/// event (operands: EWMA in milli-percent, blocks moved). Returns
/// `None` when the signal is healthy or still warming up.
pub fn autotrigger(fs: &mut Cffs, cfg: &AutotriggerConfig) -> FsResult<Option<RegroupOutcome>> {
    let obs = fs.obs();
    obs.set_signal_floor(Sig::GroupFetchUtil, cfg.util_floor_pct);
    let v = obs.signal(Sig::GroupFetchUtil);
    if v.samples < cfg.min_samples || !v.low {
        return Ok(None);
    }
    let outcome = run(
        fs,
        &RegroupConfig { max_blocks: cfg.budget_blocks, mode: cfg.mode },
    )?;
    obs.bump(Ctr::RegroupAutotriggers);
    obs.trace(
        obs.clock_ns(),
        "regroup.autotrigger",
        (v.ewma * 1000.0).max(0.0).round() as u64,
        outcome.blocks_moved as u64,
    );
    Ok(Some(outcome))
}

/// Plan and execute until the namespace scores clean or the budget runs
/// out — the background daemon's entry point.
///
/// A single [`execute`] pass can leave a directory one step short of
/// ideal when its files share extents with immovable directory blocks,
/// so this loops (re-planning each time, bounded) while progress is
/// being made. The outcome accumulates over all passes.
pub fn run(fs: &mut Cffs, cfg: &RegroupConfig) -> FsResult<RegroupOutcome> {
    let mut total = RegroupOutcome::default();
    for _ in 0..8 {
        let p = plan(fs, cfg)?;
        if p.dirs.is_empty() {
            break;
        }
        let remaining = RegroupConfig {
            max_blocks: cfg.max_blocks.saturating_sub(total.blocks_moved),
            mode: cfg.mode,
        };
        let o = execute(fs, &p, &remaining)?;
        total.blocks_moved += o.blocks_moved;
        total.groups_formed += o.groups_formed;
        total.dirs_regrouped += o.dirs_regrouped;
        total.skipped_cold += o.skipped_cold;
        total.skipped_stale += o.skipped_stale;
        total.carve_failures += o.carve_failures;
        total.budget_exhausted |= o.budget_exhausted;
        if o.blocks_moved == 0 || total.budget_exhausted {
            break;
        }
    }
    Ok(total)
}
