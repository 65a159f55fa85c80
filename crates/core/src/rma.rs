//! One-sided communication (RMA) — the paper's `MPI_PUT` critical path.
//!
//! The fast path mirrors CH4: when the provider has native RDMA and the
//! origin layout is contiguous, a put is a single descriptor handed to the
//! fabric — the 44-instruction path of Table 1. Non-contiguous layouts and
//! RDMA-less providers take the CH4 core's active-message fallback; the
//! `original` device *always* emulates RMA over active messages, which is
//! precisely why the paper measures 1342 instructions for CH3's `MPI_PUT`.
//!
//! §3.2's proposal is implemented as the `*_virtual_addr` operations on
//! [`VirtAddr`] handles (usable on *all* window kinds, removing the dynamic
//! -window disadvantage the paper describes); §3.3's precreated-handle idea
//! appears as the `all_opts` put variant in `ext.rs`.

use crate::coll;
use crate::comm::{Communicator, Errhandler};
use crate::error::{MpiError, MpiResult};
use crate::group::Group;
use crate::match_bits::PROC_NULL;
use crate::op::Op;
use crate::process::{acc_code_of, ProcInner};
use crate::proto;
use crate::request::{wait_loop, RecvDest, Request};
use crate::status::Status;
use bytes::Bytes;
use litempi_datatype::{pack, Datatype, MpiPrimitive};
use litempi_fabric::{MemoryRegion, RegionKey};
use litempi_instr::{charge, cost, Category};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A remotely accessible virtual address (§3.2): names a registered region
/// and a byte offset within it. Obtained from [`Window::base_addr`] or
/// [`Window::attach`], then offset with [`VirtAddr::byte_offset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtAddr {
    pub(crate) key: RegionKey,
    pub(crate) byte: usize,
}

impl VirtAddr {
    /// Displace the address by `delta` bytes. Checked: an offset that
    /// overflows the address space is an RMA range error, not a debug
    /// panic (or a silent wrap in release that would alias byte 0).
    pub fn byte_offset(self, delta: usize) -> MpiResult<VirtAddr> {
        let byte = self
            .byte
            .checked_add(delta)
            .ok_or(MpiError::InvalidWin("virtual-address offset overflows"))?;
        Ok(VirtAddr {
            key: self.key,
            byte,
        })
    }

    /// Serialize for the wire (applications exchange window addresses with
    /// peers, e.g. after `MPI_WIN_ATTACH` on a dynamic window — the MPI
    /// analogue is sending an `MPI_Aint`).
    pub fn to_raw(self) -> (u64, u64) {
        (self.key.0, self.byte as u64)
    }

    /// Reconstruct an address received from a peer.
    pub fn from_raw(key: u64, byte: u64) -> VirtAddr {
        VirtAddr {
            key: RegionKey(key),
            byte: byte as usize,
        }
    }
}

/// `MPI_LOCK_SHARED` / `MPI_LOCK_EXCLUSIVE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockType {
    /// Multiple concurrent origins allowed.
    Shared,
    /// Single origin.
    Exclusive,
}

/// Passive-target lock state for one target rank.
#[derive(Debug, Default)]
pub(crate) struct TargetLock {
    state: Mutex<LockSt>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct LockSt {
    exclusive: bool,
    shared: usize,
}

impl TargetLock {
    fn acquire(&self, kind: LockType) {
        let mut st = self.state.lock();
        match kind {
            LockType::Exclusive => {
                while st.exclusive || st.shared > 0 {
                    self.cv.wait(&mut st);
                }
                st.exclusive = true;
            }
            LockType::Shared => {
                while st.exclusive {
                    self.cv.wait(&mut st);
                }
                st.shared += 1;
            }
        }
    }

    fn release(&self, kind: LockType) {
        let mut st = self.state.lock();
        match kind {
            LockType::Exclusive => {
                debug_assert!(st.exclusive);
                st.exclusive = false;
            }
            LockType::Shared => {
                debug_assert!(st.shared > 0);
                st.shared -= 1;
            }
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// Window kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WinKind {
    /// `MPI_WIN_CREATE` / `MPI_WIN_ALLOCATE`: offset-addressed.
    Static,
    /// `MPI_WIN_CREATE_DYNAMIC`: address-based only (§3.2 discussion).
    Dynamic,
}

/// State shared by all ranks of a window.
pub(crate) struct WinShared {
    pub id: u64,
    pub keys: Vec<RegionKey>,
    pub lens: Vec<usize>,
    pub disp_units: Vec<usize>,
    pub group: Group,
    pub locks: Vec<TargetLock>,
}

impl WinShared {
    /// The region key exposed by the process with the given *world* rank
    /// (used by the AM progress engine, which only knows world identities).
    pub fn local_key(&self, world: usize) -> RegionKey {
        let local = self
            .group
            .local_rank(world)
            .expect("AM target not in window group");
        self.keys[local]
    }
}

/// Which access epoch an operation is issued under (used to route the AM
/// fallback: exposure-driven epochs deliver true AMs; passive epochs queue
/// at the origin and complete at flush, modeling a device-offloaded
/// handler with foMPI-style deferred completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpochKind {
    Fence,
    Start,
    Passive,
}

/// Per-target epoch words: lock-free issued/completed counters that give
/// passive-target synchronization its completion condition (`flush` blocks
/// until `completed` catches up with `issued` for that target) without any
/// shared lock on the injection path.
#[derive(Debug, Default)]
struct TargetEpoch {
    issued: AtomicU64,
    completed: AtomicU64,
}

/// A passive-target operation staged at issue and applied at flush.
/// The origin buffer is captured at issue (so `flush_local` semantics are
/// trivially satisfied); the target's memory changes only at `flush` /
/// `unlock`, which is the observable MPI-3 completion point.
enum PendingOp {
    Put {
        key: RegionKey,
        byte: usize,
        data: Vec<u8>,
    },
    Acc {
        key: RegionKey,
        byte: usize,
        op: Op,
        ty: Datatype,
        data: Vec<u8>,
    },
}

/// An RMA window.
///
/// `Window` is `Sync`: passive-target operations may be injected from
/// multiple threads (one per VCI-bound injector) through one handle. All
/// synchronization state is either atomic (epoch flags and counters) or
/// behind short-lived mutexes that are never held across fabric calls.
pub struct Window {
    shared: Arc<WinShared>,
    comm: Communicator,
    /// Context id of the communicator the window was created over. The
    /// window runs on a private dup, but ULFM revocation of the parent
    /// must still poison the window's epochs.
    parent_ctx: u16,
    kind: WinKind,
    fence_active: AtomicBool,
    start_group: Mutex<Option<Vec<usize>>>,
    post_group: Mutex<Option<Vec<usize>>>,
    locks_held: Mutex<Vec<(usize, LockType)>>,
    lock_all: AtomicBool,
    /// AM ops sent per target since the last fence (fence completion).
    sent_am: Vec<AtomicU64>,
    /// Applied-op baseline at the last fence.
    applied_seen: AtomicU64,
    /// Per-target issued/completed epoch words (passive target).
    epochs: Vec<TargetEpoch>,
    /// Passive-target operations staged at issue, applied at flush.
    pending: Vec<Mutex<Vec<PendingOp>>>,
    /// My own attached regions (dynamic windows).
    attached: Mutex<Vec<MemoryRegion>>,
}

impl Window {
    fn proc(&self) -> &Arc<ProcInner> {
        &self.comm.proc
    }

    /// `MPI_WIN_CREATE`/`MPI_WIN_ALLOCATE` (collective): expose `len` bytes
    /// with the given displacement unit. (Both MPI functions map here: the
    /// window memory lives in the fabric's registered-region store, which
    /// is what `MPI_WIN_ALLOCATE` does on RDMA networks.)
    pub fn create(comm: &Communicator, len: usize, disp_unit: usize) -> MpiResult<Window> {
        if disp_unit == 0 {
            return Err(MpiError::InvalidWin("displacement unit must be positive"));
        }
        Window::build(comm, len, disp_unit, WinKind::Static)
    }

    /// `MPI_WIN_CREATE_DYNAMIC` (collective): no initial memory; use
    /// [`Window::attach`] and address-based operations.
    pub fn create_dynamic(comm: &Communicator) -> MpiResult<Window> {
        Window::build(comm, 0, 1, WinKind::Dynamic)
    }

    fn build(
        comm: &Communicator,
        len: usize,
        disp_unit: usize,
        kind: WinKind,
    ) -> MpiResult<Window> {
        let wcomm = comm.dup();
        let proc = wcomm.proc.clone();
        let region = proc.endpoint.register(len);
        let mine = [region.key().0, len as u64, disp_unit as u64];
        let all = coll::allgather(&wcomm, &mine)?;
        let size = wcomm.size();
        let keys: Vec<RegionKey> = (0..size).map(|r| RegionKey(all[3 * r])).collect();
        let lens: Vec<usize> = (0..size).map(|r| all[3 * r + 1] as usize).collect();
        let disp_units: Vec<usize> = (0..size).map(|r| all[3 * r + 2] as usize).collect();
        let group = wcomm.group().clone();
        let univ = &proc.univ;
        let ctx = wcomm.context_id().0;
        let shared = univ.meet.meet((ctx, u64::MAX, 0), size, || WinShared {
            id: univ
                .next_win
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            keys,
            lens,
            disp_units,
            group,
            locks: (0..size).map(|_| TargetLock::default()).collect(),
        });
        proc.my_windows.lock().insert(shared.id, shared.clone());
        let win = Window {
            shared,
            parent_ctx: comm.context_id().0,
            kind,
            fence_active: AtomicBool::new(false),
            start_group: Mutex::new(None),
            post_group: Mutex::new(None),
            locks_held: Mutex::new(Vec::new()),
            lock_all: AtomicBool::new(false),
            sent_am: (0..size).map(|_| AtomicU64::new(0)).collect(),
            applied_seen: AtomicU64::new(0),
            epochs: (0..size).map(|_| TargetEpoch::default()).collect(),
            pending: (0..size).map(|_| Mutex::new(Vec::new())).collect(),
            attached: Mutex::new(vec![region]),
            comm: wcomm,
        };
        // Ensure every rank has registered the window with its progress
        // engine before anyone issues one-sided traffic at it.
        coll::barrier(&win.comm)?;
        Ok(win)
    }

    /// `MPI_WIN_FREE` (collective).
    pub fn free(self) -> MpiResult<()> {
        coll::barrier(&self.comm)?;
        let proc = self.proc().clone();
        proc.my_windows.lock().remove(&self.shared.id);
        let my = self.comm.rank();
        proc.endpoint.deregister(self.shared.keys[my]);
        Ok(())
    }

    /// Number of ranks in the window.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// My rank in the window's communicator.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Exposed length (bytes) at `rank`.
    pub fn len_at(&self, rank: usize) -> usize {
        self.shared.lens[rank]
    }

    /// Displacement unit at `rank`.
    pub fn disp_unit_at(&self, rank: usize) -> usize {
        self.shared.disp_units[rank]
    }

    /// The base virtual address of `rank`'s exposed memory (§3.2: the
    /// application can store these and use address-based operations).
    pub fn base_addr(&self, rank: usize) -> VirtAddr {
        VirtAddr {
            key: self.shared.keys[rank],
            byte: 0,
        }
    }

    /// `MPI_WIN_ATTACH` (dynamic windows): expose `len` more bytes; returns
    /// their base address, valid on any rank.
    pub fn attach(&self, len: usize) -> MpiResult<VirtAddr> {
        if self.kind != WinKind::Dynamic {
            return Err(MpiError::InvalidWin("attach on a static window"));
        }
        let region = self.proc().endpoint.register(len);
        let addr = VirtAddr {
            key: region.key(),
            byte: 0,
        };
        self.attached.lock().push(region);
        Ok(addr)
    }

    /// Read my own exposed memory (the target side of a test).
    pub fn read_local(&self, offset: usize, len: usize) -> Vec<u8> {
        let key = self.shared.keys[self.comm.rank()];
        let region = self.proc().endpoint.fabric().region(key);
        region.read_with(offset, len, <[u8]>::to_vec)
    }

    /// Write my own exposed memory directly (initialization).
    pub fn write_local(&self, offset: usize, data: &[u8]) {
        let key = self.shared.keys[self.comm.rank()];
        self.proc()
            .endpoint
            .fabric()
            .region(key)
            .write(offset, data);
    }

    // ------------------------------------------------------------- epochs

    fn epoch_for(&self, target: usize) -> Option<EpochKind> {
        if self.lock_all.load(Ordering::Acquire)
            || self.locks_held.lock().iter().any(|&(t, _)| t == target)
        {
            Some(EpochKind::Passive)
        } else if self
            .start_group
            .lock()
            .as_ref()
            .is_some_and(|g| g.contains(&target))
        {
            Some(EpochKind::Start)
        } else if self.fence_active.load(Ordering::Acquire) {
            Some(EpochKind::Fence)
        } else {
            None
        }
    }

    /// `MPI_WIN_FENCE`: close the previous fence epoch (waiting for every
    /// AM-fallback op targeting this rank to be applied) and open the next.
    pub fn fence(&self) -> MpiResult<()> {
        // Exchange per-target AM-op counts; then wait until the expected
        // number of incoming ops has been applied locally.
        let counts: Vec<u64> = self
            .sent_am
            .iter()
            .map(|c| c.swap(0, Ordering::AcqRel))
            .collect();
        let incoming = coll::alltoall(&self.comm, &counts, 1)?;
        let expected: u64 = incoming.iter().sum();
        let target_total = self.applied_seen.load(Ordering::Acquire) + expected;
        let proc = self.proc().clone();
        let id = self.shared.id;
        wait_loop(&proc, || {
            let applied = proc.win_applied.lock().get(&id).copied().unwrap_or(0);
            (applied >= target_total).then_some(())
        });
        self.applied_seen.store(target_total, Ordering::Release);
        coll::barrier(&self.comm)?;
        self.fence_active.store(true, Ordering::Release);
        Ok(())
    }

    /// `MPI_WIN_POST`: open an exposure epoch toward `origins` (window
    /// ranks).
    pub fn post(&self, origins: &[usize]) -> MpiResult<()> {
        if self.post_group.lock().is_some() {
            return Err(MpiError::RmaSync("post inside an exposure epoch"));
        }
        let proc = self.proc();
        for &o in origins {
            let world = self.comm.world_rank_of(o);
            proc.endpoint.am_send(
                proc.addr_of_world(world),
                proto::AM_PSCW_POST,
                proto::header(self.shared.id, 0, 0, self.comm.rank() as u64),
                Bytes::new(),
            );
        }
        *self.post_group.lock() = Some(origins.to_vec());
        Ok(())
    }

    /// `MPI_WIN_START`: open an access epoch toward `targets`, waiting for
    /// their posts.
    pub fn start(&self, targets: &[usize]) -> MpiResult<()> {
        if self.start_group.lock().is_some() {
            return Err(MpiError::RmaSync("start inside an access epoch"));
        }
        let proc = self.proc().clone();
        let id = self.shared.id;
        let want: Vec<usize> = targets.to_vec();
        wait_loop(&proc, || {
            let pscw = proc.pscw.lock();
            let posts = pscw.get(&id).map(|c| c.posts.clone()).unwrap_or_default();
            want.iter().all(|t| posts.contains(t)).then_some(())
        });
        // Consume the posts we waited for.
        let mut pscw = proc.pscw.lock();
        if let Some(c) = pscw.get_mut(&id) {
            c.posts.retain(|r| !want.contains(r));
        }
        drop(pscw);
        *self.start_group.lock() = Some(want);
        Ok(())
    }

    /// `MPI_WIN_COMPLETE`: close the access epoch; per-pair FIFO guarantees
    /// targets apply our ops before seeing the completion notice.
    pub fn complete(&self) -> MpiResult<()> {
        let targets = self
            .start_group
            .lock()
            .take()
            .ok_or(MpiError::RmaSync("complete without start"))?;
        let proc = self.proc();
        for t in targets {
            let world = self.comm.world_rank_of(t);
            proc.endpoint.am_send(
                proc.addr_of_world(world),
                proto::AM_PSCW_COMPLETE,
                proto::header(self.shared.id, 0, 0, self.comm.rank() as u64),
                Bytes::new(),
            );
        }
        Ok(())
    }

    /// `MPI_WIN_WAIT`: close the exposure epoch once every origin has
    /// completed.
    pub fn wait(&self) -> MpiResult<()> {
        let origins = self
            .post_group
            .lock()
            .take()
            .ok_or(MpiError::RmaSync("wait without post"))?;
        let n = origins.len();
        let proc = self.proc().clone();
        let id = self.shared.id;
        wait_loop(&proc, || {
            let pscw = proc.pscw.lock();
            (pscw.get(&id).map(|c| c.completes).unwrap_or(0) >= n).then_some(())
        });
        let mut pscw = proc.pscw.lock();
        if let Some(c) = pscw.get_mut(&id) {
            c.completes -= n;
        }
        Ok(())
    }

    /// `MPI_WIN_LOCK`.
    pub fn lock(&self, kind: LockType, target: usize) -> MpiResult<()> {
        if self.lock_all.load(Ordering::Acquire) {
            return Err(MpiError::RmaSync("lock inside lock_all"));
        }
        if self.locks_held.lock().iter().any(|&(t, _)| t == target) {
            return Err(MpiError::RmaSync("lock already held for target"));
        }
        self.check_target_alive(target)?;
        self.shared.locks[target].acquire(kind);
        self.locks_held.lock().push((target, kind));
        Ok(())
    }

    /// `MPI_WIN_UNLOCK`: complete every queued passive op at the target,
    /// *then* release the lock — another origin acquiring it next must see
    /// our updates (MPI-3 §11.5.3).
    pub fn unlock(&self, target: usize) -> MpiResult<()> {
        let kind = {
            let mut held = self.locks_held.lock();
            let pos = held
                .iter()
                .position(|&(t, _)| t == target)
                .ok_or(MpiError::RmaSync("unlock without lock"))?;
            let (_, kind) = held.remove(pos);
            kind
        };
        self.apply_pending(target);
        self.shared.locks[target].release(kind);
        Ok(())
    }

    /// `MPI_WIN_LOCK_ALL` (shared lock on every target).
    pub fn lock_all(&self) -> MpiResult<()> {
        if self.lock_all.load(Ordering::Acquire) {
            return Err(MpiError::RmaSync("lock_all inside lock_all"));
        }
        if !self.locks_held.lock().is_empty() {
            return Err(MpiError::RmaSync("lock_all inside lock"));
        }
        for t in 0..self.size() {
            self.check_target_alive(t)?;
        }
        for t in 0..self.size() {
            self.shared.locks[t].acquire(LockType::Shared);
        }
        self.lock_all.store(true, Ordering::Release);
        Ok(())
    }

    /// `MPI_WIN_UNLOCK_ALL`: complete all queued ops, then release.
    pub fn unlock_all(&self) -> MpiResult<()> {
        if !self.lock_all.load(Ordering::Acquire) {
            return Err(MpiError::RmaSync("unlock_all without lock_all"));
        }
        for t in 0..self.size() {
            self.apply_pending(t);
        }
        for t in 0..self.size() {
            self.shared.locks[t].release(LockType::Shared);
        }
        self.lock_all.store(false, Ordering::Release);
        Ok(())
    }

    /// `MPI_WIN_FLUSH`: complete all outstanding operations to `target`,
    /// at both origin and target. Passive-target puts/accumulates queue at
    /// issue and are applied here; the per-target epoch words advance to
    /// `issued == completed`.
    pub fn flush(&self, target: usize) -> MpiResult<()> {
        self.check_target_alive(target)?;
        self.apply_pending(target);
        charge(Category::Rma, cost::rma::FLUSH_BASE);
        self.proc().endpoint.note_win_flush();
        self.proc().progress();
        Ok(())
    }

    /// `MPI_WIN_FLUSH_ALL`.
    pub fn flush_all(&self) -> MpiResult<()> {
        for t in 0..self.size() {
            self.apply_pending(t);
        }
        charge(Category::Rma, cost::rma::FLUSH_BASE);
        self.proc().endpoint.note_win_flush();
        self.proc().progress();
        Ok(())
    }

    /// `MPI_WIN_FLUSH_LOCAL`: complete outstanding operations to `target`
    /// at the *origin* only. Passive ops capture the origin buffer when
    /// they are staged, so local completion holds as soon as the call
    /// charges its synchronization cost (remote completion still waits for
    /// [`Window::flush`] / [`Window::unlock`]).
    pub fn flush_local(&self, target: usize) -> MpiResult<()> {
        self.check_target_alive(target)?;
        charge(Category::Rma, cost::rma::FLUSH_BASE);
        self.proc().endpoint.note_win_flush();
        self.proc().progress();
        Ok(())
    }

    /// `MPI_WIN_FLUSH_LOCAL_ALL`.
    pub fn flush_local_all(&self) -> MpiResult<()> {
        charge(Category::Rma, cost::rma::FLUSH_BASE);
        self.proc().endpoint.note_win_flush();
        self.proc().progress();
        Ok(())
    }

    /// Number of passive-target operations queued toward `target` but not
    /// yet completed by a flush (exposed for tests and diagnostics).
    pub fn pending_ops(&self, target: usize) -> u64 {
        let e = &self.epochs[target];
        e.issued.load(Ordering::Acquire) - e.completed.load(Ordering::Acquire)
    }

    // ------------------------------------------------- passive-target core

    /// ULFM wiring for one-sided traffic: a revoked window communicator or
    /// a dead target fails fast instead of hanging in an epoch that can
    /// never close.
    fn check_target_alive(&self, target: usize) -> MpiResult<()> {
        let proc = self.proc();
        if proc.is_ctx_revoked(self.comm.context_id().0) || proc.is_ctx_revoked(self.parent_ctx) {
            return Err(MpiError::Revoked);
        }
        let world = self.comm.world_rank_of(target);
        if proc.endpoint.peer_unreachable(proc.addr_of_world(world)) {
            return Err(MpiError::ProcessFailed { peer: world });
        }
        Ok(())
    }

    /// Stage one passive-target op: bump the target's epoch word and queue
    /// the captured operation for the next flush.
    fn queue_op(&self, target: usize, op: PendingOp) {
        charge(Category::Rma, cost::rma::OP_QUEUE);
        self.proc().endpoint.note_win_ops_issued(1);
        self.epochs[target].issued.fetch_add(1, Ordering::AcqRel);
        self.pending[target].lock().push(op);
    }

    /// Drain and apply `target`'s queued ops (the flush/unlock completion
    /// point). The queue is detached under its mutex and applied outside
    /// it, so injector threads can keep staging while the fabric works.
    fn apply_pending(&self, target: usize) {
        let ops: Vec<PendingOp> = std::mem::take(&mut *self.pending[target].lock());
        if ops.is_empty() {
            return;
        }
        let proc = self.proc();
        let world = self.comm.world_rank_of(target);
        let dst = proc.addr_of_world(world);
        let n = ops.len() as u64;
        for op in ops {
            charge(Category::Rma, cost::rma::FLUSH_OP);
            match op {
                PendingOp::Put { key, byte, data } => {
                    proc.endpoint.rdma_put(dst, key, byte, &data);
                }
                PendingOp::Acc {
                    key,
                    byte,
                    op,
                    ty,
                    data,
                } => {
                    proc.endpoint
                        .rdma_update(dst, key, byte, data.len(), |dstb| {
                            // Predefined-op application cannot fail; the
                            // operand was validated at issue.
                            let _ = op.apply(&ty, dstb, &data);
                        });
                }
            }
        }
        self.epochs[target].completed.fetch_add(n, Ordering::AcqRel);
        proc.endpoint.note_win_ops_completed(n);
    }

    /// Account one synchronous (completes-at-issue) one-sided op in the
    /// per-target epoch words and endpoint counters. Stats only — no
    /// instruction charge, so the calibrated injection pins are untouched.
    fn note_sync_op(&self, target: usize) {
        self.epochs[target].issued.fetch_add(1, Ordering::AcqRel);
        self.epochs[target].completed.fetch_add(1, Ordering::AcqRel);
        let ep = &self.proc().endpoint;
        ep.note_win_ops_issued(1);
        ep.note_win_ops_completed(1);
    }

    // ---------------------------------------------------------- prologue

    /// MPI-layer + mandatory-overhead prologue for the put-family path.
    /// Returns `None` for `MPI_PROC_NULL` targets. `vaddr` carries the
    /// §3.2 pre-translated address when the caller used the extension.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Put C signature
    fn rma_prologue(
        &self,
        target: i32,
        disp: usize,
        bytes: usize,
        ty: &Datatype,
        vaddr: Option<VirtAddr>,
        skip_checks: bool,
        static_type: bool,
    ) -> MpiResult<Option<(usize, VirtAddr, EpochKind)>> {
        let proc = self.proc();
        // Build-config overheads (Table 1 rows 1–4) apply to every put-
        // family entry point; `skip_checks` (the §3.7 fused path) removes
        // only the *mandatory* §3 overheads below.
        if proc.config.error_checking {
            charge(Category::ErrorChecking, cost::put::ERROR_CHECKING);
            if !ty.is_committed() {
                return Err(MpiError::InvalidDatatype(
                    litempi_datatype::TypeError::NotCommitted,
                ));
            }
            if target != PROC_NULL && !skip_checks {
                self.comm.group().check_rank(target)?;
            }
        }
        // RMA traffic rides the AM/native-RDMA path, which lives on VCI 0.
        proc.with_cs(0, cost::put::THREAD_CHECK, || ());
        if !proc.config.ipo {
            charge(Category::FunctionCall, cost::put::FUNCTION_CALL);
        }
        if crate::pt2pt::redundant_checks_remain(&proc.config, static_type) {
            charge(Category::RedundantChecks, cost::put::REDUNDANT_CHECKS);
        }
        if !skip_checks {
            charge(Category::ProcNullCheck, cost::put::PROC_NULL_CHECK);
        }
        if target == PROC_NULL {
            return Ok(None);
        }
        let t = target as usize;
        // ULFM wiring: fail fast (uncharged — not part of the paper's
        // fault-free injection counts) instead of issuing at a dead or
        // revoked target, where the op would hang or apply silently.
        self.check_target_alive(t)?;
        let epoch = self
            .epoch_for(t)
            .ok_or(MpiError::RmaSync("RMA operation outside an access epoch"))?;
        if !skip_checks {
            // §3.3: dereference into the window object.
            charge(Category::ObjectDeref, cost::put::OBJECT_DEREF);
            // §3.1: target rank → network address.
            charge(
                Category::CommRankTranslation,
                cost::put::COMM_RANK_TRANSLATION,
            );
        }
        let addr = match vaddr {
            Some(a) => {
                // §3.2 pre-translated address: still range-check it against
                // the named region's extent (the NIC would fault here; we
                // return `MPI_ERR_WIN` instead of wrapping or panicking).
                if proc.config.error_checking && !skip_checks {
                    let end = a
                        .byte
                        .checked_add(bytes)
                        .ok_or(MpiError::InvalidWin("access beyond exposed window"))?;
                    let extent = proc
                        .endpoint
                        .fabric()
                        .region_len(a.key)
                        .ok_or(MpiError::InvalidWin("RMA through a stale region key"))?;
                    if end > extent {
                        return Err(MpiError::InvalidWin("access beyond exposed window"));
                    }
                }
                a
            }
            None => {
                if self.kind == WinKind::Dynamic {
                    return Err(MpiError::InvalidWin(
                        "offset-based RMA on a dynamic window (use *_virtual_addr)",
                    ));
                }
                if !skip_checks {
                    // §3.2: offset + displacement unit → virtual address.
                    charge(
                        Category::WinOffsetTranslation,
                        cost::put::WIN_OFFSET_TRANSLATION,
                    );
                }
                if proc.config.error_checking && !skip_checks {
                    let byte = disp
                        .checked_mul(self.shared.disp_units[t])
                        .ok_or(MpiError::InvalidWin("access beyond exposed window"))?;
                    let end = byte
                        .checked_add(bytes)
                        .ok_or(MpiError::InvalidWin("access beyond exposed window"))?;
                    if end > self.shared.lens[t] {
                        return Err(MpiError::InvalidWin("access beyond exposed window"));
                    }
                }
                VirtAddr {
                    key: self.shared.keys[t],
                    byte: disp * self.shared.disp_units[t],
                }
            }
        };
        Ok(Some((t, addr, epoch)))
    }

    /// Netmod decision: native RDMA fast path vs AM fallback, with the
    /// device-specific charges. Returns `true` when the caller should take
    /// the native path.
    fn native_path(&self, ty: &Datatype) -> bool {
        use crate::config::DeviceKind;
        let caps = self.proc().endpoint.fabric().profile().caps;
        self.proc().config.device == DeviceKind::Ch4 && caps.native_rdma && ty.is_contiguous()
    }

    fn charge_netmod(&self, native: bool) {
        use crate::config::DeviceKind;
        if self.proc().config.device == DeviceKind::Original {
            // CH3: RMA is emulated over pt2pt active messages.
            charge(Category::NetmodIssue, cost::put::NETMOD_ISSUE);
            charge(Category::OriginalLayering, cost::put::ORIGINAL_LAYERING);
        } else if native {
            charge(Category::NetmodIssue, cost::put::NETMOD_ISSUE);
        } else {
            charge(Category::NetmodIssue, cost::put::AM_FALLBACK);
        }
    }

    // -------------------------------------------------------------- ops

    /// `MPI_PUT` on raw bytes: write `count` elements of `ty` from `buf`
    /// to `target` at element displacement `disp`.
    pub fn put_bytes(
        &self,
        buf: &[u8],
        ty: &Datatype,
        count: usize,
        target: i32,
        disp: usize,
    ) -> MpiResult<()> {
        self.put_inner(buf, ty, count, target, disp, None, false, false)
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Put C signature
    pub(crate) fn put_inner(
        &self,
        buf: &[u8],
        ty: &Datatype,
        count: usize,
        target: i32,
        disp: usize,
        vaddr: Option<VirtAddr>,
        skip_checks: bool,
        static_type: bool,
    ) -> MpiResult<()> {
        let bytes = pack::packed_size(ty, count);
        let Some((t, addr, epoch)) =
            self.rma_prologue(target, disp, bytes, ty, vaddr, skip_checks, static_type)?
        else {
            return Ok(());
        };
        let proc = self.proc();
        let native = self.native_path(ty);
        self.charge_netmod(native);
        let world = self.comm.world_rank_of(t);
        if epoch == EpochKind::Passive {
            // Passive target: stage the origin buffer and complete at
            // flush/unlock (foMPI-style deferred completion) — regardless
            // of whether the provider would take the native descriptor
            // path, since the *completion* point is what MPI-3 defines.
            litempi_instr::note_alloc(1);
            let packed = if ty.is_contiguous() {
                buf[..bytes].to_vec()
            } else {
                pack::pack(ty, count, buf)
            };
            self.queue_op(
                t,
                PendingOp::Put {
                    key: addr.key,
                    byte: addr.byte,
                    data: packed,
                },
            );
        } else if native {
            // Contiguous fast path: one descriptor, no target involvement.
            proc.endpoint.rdma_put(
                proc.addr_of_world(world),
                addr.key,
                addr.byte,
                &buf[..bytes],
            );
            self.note_sync_op(t);
        } else {
            // AM put stages one wire buffer; `Bytes::from` then moves it
            // (no second copy).
            litempi_instr::note_alloc(1);
            let packed = if ty.is_contiguous() {
                buf[..bytes].to_vec()
            } else {
                pack::pack(ty, count, buf)
            };
            proc.endpoint.am_send(
                proc.addr_of_world(world),
                proto::AM_RMA_PUT,
                proto::header(self.shared.id, addr.byte as u64, packed.len() as u64, 0),
                Bytes::from(packed),
            );
            self.sent_am[t].fetch_add(1, Ordering::AcqRel);
            self.note_sync_op(t);
        }
        Ok(())
    }

    /// Typed `MPI_PUT` (a §2.2 Class-2 call: the datatype is a
    /// compile-time constant, so library IPO folds the size checks).
    pub fn put<T: MpiPrimitive>(&self, data: &[T], target: i32, disp: usize) -> MpiResult<()> {
        self.put_inner(
            T::as_bytes(data),
            &T::DATATYPE,
            data.len(),
            target,
            disp,
            None,
            false,
            true,
        )
    }

    /// `MPI_GET` on raw bytes.
    pub fn get_bytes(
        &self,
        buf: &mut [u8],
        ty: &Datatype,
        count: usize,
        target: i32,
        disp: usize,
    ) -> MpiResult<()> {
        self.get_inner(buf, ty, count, target, disp, None, false, false)
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Get C signature
    pub(crate) fn get_inner(
        &self,
        buf: &mut [u8],
        ty: &Datatype,
        count: usize,
        target: i32,
        disp: usize,
        vaddr: Option<VirtAddr>,
        skip_checks: bool,
        static_type: bool,
    ) -> MpiResult<()> {
        let bytes = pack::packed_size(ty, count);
        let Some((t, addr, epoch)) =
            self.rma_prologue(target, disp, bytes, ty, vaddr, skip_checks, static_type)?
        else {
            return Ok(());
        };
        let proc = self.proc();
        let native = self.native_path(ty);
        self.charge_netmod(native);
        let world = self.comm.world_rank_of(t);
        let mut unpack_into = |wire: &[u8]| {
            if ty.is_contiguous() {
                buf[..bytes].copy_from_slice(wire);
            } else {
                pack::unpack(ty, count, wire, buf);
            }
        };
        if native || epoch == EpochKind::Passive {
            if epoch == EpochKind::Passive {
                // Program order within the epoch: a get observes every
                // earlier queued op from this origin.
                self.apply_pending(t);
            }
            // The RDMA read lands straight in the user buffer.
            proc.endpoint.rdma_get(
                proc.addr_of_world(world),
                addr.key,
                addr.byte,
                bytes,
                unpack_into,
            );
            self.note_sync_op(t);
        } else {
            // AM get: request/reply through the target's progress engine.
            let op_id = proc
                .next_op_id
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let slot = Arc::new(Mutex::new(None));
            proc.pending_replies.lock().insert(op_id, slot.clone());
            proc.endpoint.am_send(
                proc.addr_of_world(world),
                proto::AM_RMA_GET_REQ,
                proto::header(self.shared.id, addr.byte as u64, bytes as u64, op_id),
                Bytes::new(),
            );
            self.sent_am[t].fetch_add(1, Ordering::AcqRel);
            self.note_sync_op(t);
            unpack_into(&wait_loop(proc, || slot.lock().take()));
        }
        Ok(())
    }

    /// Typed `MPI_GET` (Class-2: compile-time-constant datatype).
    pub fn get<T: MpiPrimitive>(&self, buf: &mut [T], target: i32, disp: usize) -> MpiResult<()> {
        let count = buf.len();
        self.get_inner(
            T::as_bytes_mut(buf),
            &T::DATATYPE,
            count,
            target,
            disp,
            None,
            false,
            true,
        )
    }

    /// `MPI_ACCUMULATE` (element-wise atomic at the target).
    pub fn accumulate<T: MpiPrimitive>(
        &self,
        data: &[T],
        target: i32,
        disp: usize,
        op: &Op,
    ) -> MpiResult<()> {
        let ty = T::DATATYPE;
        // A zero-count accumulate has no defined target element to touch;
        // the AM/reply machinery (and `fetch_and_op`'s single-element
        // contract) would otherwise index into an empty operand.
        if data.is_empty() {
            return Err(MpiError::InvalidCount(0));
        }
        let bytes = pack::packed_size(&ty, data.len());
        if self.proc().config.error_checking && !op.legal_on(T::PREDEFINED) {
            return Err(MpiError::InvalidOp("op not defined for this datatype"));
        }
        let Some((t, addr, epoch)) =
            self.rma_prologue(target, disp, bytes, &ty, None, false, true)?
        else {
            return Ok(());
        };
        let proc = self.proc();
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        let world = self.comm.world_rank_of(t);
        let wire = T::as_bytes(data);
        if epoch == EpochKind::Passive {
            // Stage the operand; the element-wise atomic applies at flush.
            litempi_instr::note_alloc(1);
            self.queue_op(
                t,
                PendingOp::Acc {
                    key: addr.key,
                    byte: addr.byte,
                    op: op.clone(),
                    ty: ty.clone(),
                    data: wire.to_vec(),
                },
            );
            Ok(())
        } else if native {
            // Element-wise atomic under the region lock ("hardware"
            // atomics / offloaded handler).
            let op = op.clone();
            let ty2 = ty.clone();
            let mut res = Ok(());
            proc.endpoint.rdma_update(
                proc.addr_of_world(world),
                addr.key,
                addr.byte,
                bytes,
                |dst| res = op.apply(&ty2, dst, wire),
            );
            self.note_sync_op(t);
            res
        } else {
            let code = acc_code_of(op).ok_or(MpiError::InvalidOp(
                "user-defined op not supported on the AM path",
            ))?;
            let type_idx = predef_index::<T>();
            // One staged operand buffer for the AM handler.
            litempi_instr::note_alloc(1);
            proc.endpoint.am_send(
                proc.addr_of_world(world),
                proto::AM_RMA_ACC,
                proto::header(
                    self.shared.id,
                    addr.byte as u64,
                    bytes as u64,
                    proto::encode_acc(code, type_idx),
                ),
                Bytes::copy_from_slice(wire),
            );
            self.sent_am[t].fetch_add(1, Ordering::AcqRel);
            self.note_sync_op(t);
            Ok(())
        }
    }

    /// `MPI_GET_ACCUMULATE`: fetch the target data, then apply `op`.
    /// Returns the fetched (pre-op) values.
    pub fn get_accumulate<T: MpiPrimitive>(
        &self,
        data: &[T],
        target: i32,
        disp: usize,
        op: &Op,
    ) -> MpiResult<Vec<T>> {
        let ty = T::DATATYPE;
        // Zero-count get_accumulate has no element to fetch — reject
        // instead of panicking on an empty result template.
        if data.is_empty() {
            return Err(MpiError::InvalidCount(0));
        }
        let bytes = pack::packed_size(&ty, data.len());
        if self.proc().config.error_checking && !op.legal_on(T::PREDEFINED) {
            return Err(MpiError::InvalidOp("op not defined for this datatype"));
        }
        let Some((t, addr, epoch)) =
            self.rma_prologue(target, disp, bytes, &ty, None, false, true)?
        else {
            return Ok(data.to_vec());
        };
        let proc = self.proc();
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        let world = self.comm.world_rank_of(t);
        let wire = T::as_bytes(data);
        let old_bytes: Vec<u8> = if native || epoch == EpochKind::Passive {
            if epoch == EpochKind::Passive {
                // Program order: the fetch observes earlier queued ops.
                self.apply_pending(t);
            }
            let op = op.clone();
            let ty2 = ty.clone();
            let mut old = Vec::new();
            let mut res = Ok(());
            proc.endpoint.rdma_update(
                proc.addr_of_world(world),
                addr.key,
                addr.byte,
                bytes,
                |dst| {
                    old = dst.to_vec();
                    res = op.apply(&ty2, dst, wire);
                },
            );
            res?;
            self.note_sync_op(t);
            old
        } else {
            let code = acc_code_of(op).ok_or(MpiError::InvalidOp(
                "user-defined op not supported on the AM path",
            ))?;
            let type_idx = predef_index::<T>();
            let op_id = proc
                .next_op_id
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let slot = Arc::new(Mutex::new(None));
            proc.pending_replies.lock().insert(op_id, slot.clone());
            // One staged request buffer, moved into `Bytes` below.
            litempi_instr::note_alloc(1);
            let mut payload = proto::encode_acc(code, type_idx).to_le_bytes().to_vec();
            payload.extend_from_slice(wire);
            proc.endpoint.am_send(
                proc.addr_of_world(world),
                proto::AM_RMA_GETACC_REQ,
                proto::header(self.shared.id, addr.byte as u64, bytes as u64, op_id),
                Bytes::from(payload),
            );
            self.sent_am[t].fetch_add(1, Ordering::AcqRel);
            self.note_sync_op(t);
            wait_loop(proc, || slot.lock().take())
        };
        let mut out = vec![data[0]; data.len()];
        T::as_bytes_mut(&mut out).copy_from_slice(&old_bytes);
        Ok(out)
    }

    /// `MPI_FETCH_AND_OP` (single element).
    pub fn fetch_and_op<T: MpiPrimitive>(
        &self,
        value: T,
        target: i32,
        disp: usize,
        op: &Op,
    ) -> MpiResult<T> {
        self.get_accumulate(&[value], target, disp, op)?
            .first()
            .copied()
            .ok_or(MpiError::InvalidCount(0))
    }

    /// `MPI_COMPARE_AND_SWAP` (single element): stores `new` iff the target
    /// equals `compare`; returns the previous value.
    pub fn compare_and_swap<T: MpiPrimitive>(
        &self,
        new: T,
        compare: T,
        target: i32,
        disp: usize,
    ) -> MpiResult<T> {
        let ty = T::DATATYPE;
        let bytes = ty.size();
        let Some((t, addr, epoch)) =
            self.rma_prologue(target, disp, bytes, &ty, None, false, true)?
        else {
            return Ok(compare);
        };
        let proc = self.proc();
        self.charge_netmod(true);
        let world = self.comm.world_rank_of(t);
        if epoch == EpochKind::Passive {
            // Program order: the swap observes earlier queued ops.
            self.apply_pending(t);
        }
        let new_wire = new.to_le_vec();
        let cmp_wire = compare.to_le_vec();
        let mut old = Vec::new();
        proc.endpoint.rdma_update(
            proc.addr_of_world(world),
            addr.key,
            addr.byte,
            bytes,
            |dst| {
                old = dst.to_vec();
                if dst == &cmp_wire[..] {
                    dst.copy_from_slice(&new_wire);
                }
            },
        );
        self.note_sync_op(t);
        Ok(T::from_wire(&old))
    }

    // ------------------------------------------------- request-based RMA

    /// Snapshot of the errhandler + context for a new RMA request.
    fn req_env(&self) -> (bool, u16) {
        (
            self.comm.errhandler() == Errhandler::ErrorsAreFatal,
            self.comm.context_id().0,
        )
    }

    /// `MPI_RPUT`: put with a per-operation request. The request completes
    /// when the target has applied the data (stronger than the standard's
    /// local-completion minimum). Request-based ops carry their own
    /// completion unit and therefore bypass the passive-target flush
    /// queue.
    pub fn rput<T: MpiPrimitive>(
        &self,
        data: &[T],
        target: i32,
        disp: usize,
    ) -> MpiResult<Request<'static>> {
        let ty = T::DATATYPE;
        let buf = T::as_bytes(data);
        let bytes = pack::packed_size(&ty, data.len());
        let Some((t, addr, epoch)) =
            self.rma_prologue(target, disp, bytes, &ty, None, false, true)?
        else {
            return Ok(Request::done(Status::send()));
        };
        let proc = self.proc();
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
        let world = self.comm.world_rank_of(t);
        if native || epoch == EpochKind::Passive {
            proc.endpoint.rdma_put(
                proc.addr_of_world(world),
                addr.key,
                addr.byte,
                &buf[..bytes],
            );
            self.note_sync_op(t);
            return Ok(Request::done(Status::send()));
        }
        // AM path: the target acknowledges once the put is applied.
        let op_id = proc
            .next_op_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let slot: crate::process::ReplySlot = Arc::new(Mutex::new(None));
        proc.pending_replies.lock().insert(op_id, slot.clone());
        litempi_instr::note_alloc(1);
        proc.endpoint.am_send(
            proc.addr_of_world(world),
            proto::AM_RMA_PUT,
            proto::header(self.shared.id, addr.byte as u64, bytes as u64, op_id),
            Bytes::copy_from_slice(&buf[..bytes]),
        );
        self.sent_am[t].fetch_add(1, Ordering::AcqRel);
        proc.endpoint.note_win_ops_issued(1);
        let (fatal, ctx) = self.req_env();
        Ok(Request::rma(
            proc.clone(),
            slot,
            None,
            Some(world),
            fatal,
            ctx,
        ))
    }

    /// `MPI_RGET`: get with a per-operation request; the request's
    /// completion delivers the fetched bytes into `buf`.
    pub fn rget<'buf, T: MpiPrimitive>(
        &self,
        buf: &'buf mut [T],
        target: i32,
        disp: usize,
    ) -> MpiResult<Request<'buf>> {
        let ty = T::DATATYPE;
        let count = buf.len();
        let bytes = pack::packed_size(&ty, count);
        let Some((t, addr, epoch)) =
            self.rma_prologue(target, disp, bytes, &ty, None, false, true)?
        else {
            return Ok(Request::done(Status {
                source: PROC_NULL,
                tag: 0,
                bytes: 0,
            }));
        };
        let proc = self.proc();
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
        let world = self.comm.world_rank_of(t);
        if native || epoch == EpochKind::Passive {
            if epoch == EpochKind::Passive {
                // Program order: the get observes earlier queued ops.
                self.apply_pending(t);
            }
            proc.endpoint.rdma_get(
                proc.addr_of_world(world),
                addr.key,
                addr.byte,
                bytes,
                |wire| T::as_bytes_mut(buf).copy_from_slice(wire),
            );
            self.note_sync_op(t);
            return Ok(Request::done(Status {
                source: t as i32,
                tag: 0,
                bytes,
            }));
        }
        let op_id = proc
            .next_op_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let slot: crate::process::ReplySlot = Arc::new(Mutex::new(None));
        proc.pending_replies.lock().insert(op_id, slot.clone());
        proc.endpoint.am_send(
            proc.addr_of_world(world),
            proto::AM_RMA_GET_REQ,
            proto::header(self.shared.id, addr.byte as u64, bytes as u64, op_id),
            Bytes::new(),
        );
        self.sent_am[t].fetch_add(1, Ordering::AcqRel);
        proc.endpoint.note_win_ops_issued(1);
        let (fatal, ctx) = self.req_env();
        Ok(Request::rma(
            proc.clone(),
            slot,
            Some(RecvDest {
                buf: T::as_bytes_mut(buf),
                ty,
                count,
            }),
            Some(world),
            fatal,
            ctx,
        ))
    }

    /// `MPI_RACCUMULATE`: accumulate with a per-operation request.
    pub fn raccumulate<T: MpiPrimitive>(
        &self,
        data: &[T],
        target: i32,
        disp: usize,
        op: &Op,
    ) -> MpiResult<Request<'static>> {
        let ty = T::DATATYPE;
        if data.is_empty() {
            return Err(MpiError::InvalidCount(0));
        }
        let bytes = pack::packed_size(&ty, data.len());
        if self.proc().config.error_checking && !op.legal_on(T::PREDEFINED) {
            return Err(MpiError::InvalidOp("op not defined for this datatype"));
        }
        let Some((t, addr, epoch)) =
            self.rma_prologue(target, disp, bytes, &ty, None, false, true)?
        else {
            return Ok(Request::done(Status::send()));
        };
        let proc = self.proc();
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
        let world = self.comm.world_rank_of(t);
        let wire = T::as_bytes(data);
        if native || epoch == EpochKind::Passive {
            let op = op.clone();
            let ty2 = ty.clone();
            let mut res = Ok(());
            proc.endpoint.rdma_update(
                proc.addr_of_world(world),
                addr.key,
                addr.byte,
                bytes,
                |dst| res = op.apply(&ty2, dst, wire),
            );
            res?;
            self.note_sync_op(t);
            return Ok(Request::done(Status::send()));
        }
        // AM path: ride the get-accumulate request/reply so the target's
        // application is acknowledged; the fetched payload is discarded.
        let code = acc_code_of(op).ok_or(MpiError::InvalidOp(
            "user-defined op not supported on the AM path",
        ))?;
        let type_idx = predef_index::<T>();
        let op_id = proc
            .next_op_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let slot: crate::process::ReplySlot = Arc::new(Mutex::new(None));
        proc.pending_replies.lock().insert(op_id, slot.clone());
        litempi_instr::note_alloc(1);
        let mut payload = proto::encode_acc(code, type_idx).to_le_bytes().to_vec();
        payload.extend_from_slice(wire);
        proc.endpoint.am_send(
            proc.addr_of_world(world),
            proto::AM_RMA_GETACC_REQ,
            proto::header(self.shared.id, addr.byte as u64, bytes as u64, op_id),
            Bytes::from(payload),
        );
        self.sent_am[t].fetch_add(1, Ordering::AcqRel);
        proc.endpoint.note_win_ops_issued(1);
        let (fatal, ctx) = self.req_env();
        Ok(Request::rma(
            proc.clone(),
            slot,
            None,
            Some(world),
            fatal,
            ctx,
        ))
    }

    /// `MPI_RGET_ACCUMULATE`: get-accumulate with a per-operation request;
    /// the pre-op target values land in `result` at completion.
    pub fn rget_accumulate<'buf, T: MpiPrimitive>(
        &self,
        data: &[T],
        result: &'buf mut [T],
        target: i32,
        disp: usize,
        op: &Op,
    ) -> MpiResult<Request<'buf>> {
        let ty = T::DATATYPE;
        if data.is_empty() || result.len() != data.len() {
            return Err(MpiError::InvalidCount(result.len() as i64));
        }
        let bytes = pack::packed_size(&ty, data.len());
        if self.proc().config.error_checking && !op.legal_on(T::PREDEFINED) {
            return Err(MpiError::InvalidOp("op not defined for this datatype"));
        }
        let Some((t, addr, epoch)) =
            self.rma_prologue(target, disp, bytes, &ty, None, false, true)?
        else {
            return Ok(Request::done(Status {
                source: PROC_NULL,
                tag: 0,
                bytes: 0,
            }));
        };
        let proc = self.proc();
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
        let world = self.comm.world_rank_of(t);
        let wire = T::as_bytes(data);
        if native || epoch == EpochKind::Passive {
            if epoch == EpochKind::Passive {
                self.apply_pending(t);
            }
            let op = op.clone();
            let ty2 = ty.clone();
            let mut old = Vec::new();
            let mut res = Ok(());
            proc.endpoint.rdma_update(
                proc.addr_of_world(world),
                addr.key,
                addr.byte,
                bytes,
                |dst| {
                    old = dst.to_vec();
                    res = op.apply(&ty2, dst, wire);
                },
            );
            res?;
            T::as_bytes_mut(result).copy_from_slice(&old);
            self.note_sync_op(t);
            return Ok(Request::done(Status {
                source: t as i32,
                tag: 0,
                bytes,
            }));
        }
        let code = acc_code_of(op).ok_or(MpiError::InvalidOp(
            "user-defined op not supported on the AM path",
        ))?;
        let type_idx = predef_index::<T>();
        let op_id = proc
            .next_op_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let slot: crate::process::ReplySlot = Arc::new(Mutex::new(None));
        proc.pending_replies.lock().insert(op_id, slot.clone());
        litempi_instr::note_alloc(1);
        let mut payload = proto::encode_acc(code, type_idx).to_le_bytes().to_vec();
        payload.extend_from_slice(wire);
        proc.endpoint.am_send(
            proc.addr_of_world(world),
            proto::AM_RMA_GETACC_REQ,
            proto::header(self.shared.id, addr.byte as u64, bytes as u64, op_id),
            Bytes::from(payload),
        );
        self.sent_am[t].fetch_add(1, Ordering::AcqRel);
        proc.endpoint.note_win_ops_issued(1);
        let count = data.len();
        let (fatal, ctx) = self.req_env();
        Ok(Request::rma(
            proc.clone(),
            slot,
            Some(RecvDest {
                buf: T::as_bytes_mut(result),
                ty,
                count,
            }),
            Some(world),
            fatal,
            ctx,
        ))
    }
}

/// Index of `T`'s predefined type in `Predefined::ALL` (AM encoding).
fn predef_index<T: MpiPrimitive>() -> usize {
    use litempi_datatype::Predefined;
    Predefined::ALL
        .iter()
        .position(|p| *p == T::PREDEFINED)
        .expect("every primitive's predefined type is in ALL")
}

/// A shared-memory window (`MPI_WIN_ALLOCATE_SHARED`): every rank's
/// segment is directly load/store-accessible to every other rank on the
/// node — the shmmod's one-sided fast path, where even the RDMA descriptor
/// disappears.
pub struct SharedWindow {
    win: Window,
}

impl std::fmt::Debug for SharedWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedWindow")
            .field("win", &self.win)
            .finish()
    }
}

impl SharedWindow {
    /// `MPI_WIN_ALLOCATE_SHARED` (collective): allocate `len` bytes per
    /// rank, directly accessible node-wide. Errors unless every rank of
    /// `comm` lives on the same node (the standard's precondition).
    pub fn allocate(comm: &Communicator, len: usize, disp_unit: usize) -> MpiResult<SharedWindow> {
        let topo = comm.proc.endpoint.fabric().topology();
        let me = comm.proc.endpoint.addr();
        for r in 0..comm.size() {
            let peer = litempi_fabric::NetAddr(comm.world_rank_of(r) as u32);
            if !topo.same_node(me, peer) {
                return Err(MpiError::InvalidWin(
                    "win_allocate_shared requires a single-node communicator",
                ));
            }
        }
        Ok(SharedWindow {
            win: Window::create(comm, len, disp_unit)?,
        })
    }

    /// The regular window view (for RMA operations and synchronization).
    pub fn window(&self) -> &Window {
        &self.win
    }

    /// `MPI_WIN_SHARED_QUERY` + a direct store: write into `rank`'s
    /// segment as a CPU store (no epoch needed; pair with
    /// [`SharedWindow::sync`] + a barrier, as with real shared memory).
    pub fn write_direct(&self, rank: usize, offset: usize, data: &[u8]) {
        let key = self.win.shared.keys[rank];
        self.win
            .proc()
            .endpoint
            .fabric()
            .region(key)
            .write(offset, data);
    }

    /// Direct load from `rank`'s segment.
    pub fn read_direct(&self, rank: usize, offset: usize, len: usize) -> Vec<u8> {
        let key = self.win.shared.keys[rank];
        self.win
            .proc()
            .endpoint
            .fabric()
            .region(key)
            .read_with(offset, len, <[u8]>::to_vec)
    }

    /// `MPI_WIN_SYNC`: memory barrier between direct accesses. Our region
    /// store is lock-synchronized, so this is ordering documentation plus
    /// a progress poke.
    pub fn sync(&self) {
        self.win.proc().progress();
    }

    /// `MPI_WIN_FENCE` passthrough for mixed direct/RMA usage.
    pub fn fence(&self) -> MpiResult<()> {
        self.win.fence()
    }
}

impl std::fmt::Debug for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Window")
            .field("id", &self.shared.id)
            .field("rank", &self.comm.rank())
            .field("size", &self.comm.size())
            .finish()
    }
}
