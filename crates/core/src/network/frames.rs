//! Frame slab: storage for frames on the air.
//!
//! One transmission's payload is shared by every receiver's pending
//! `SignalEnd`. It lives in a slab slot, and the [`TxId`] carried by
//! `SignalStart`/`SignalEnd` events packs the slot index with a reuse
//! generation. Receivers borrow the frame by id; the generation check
//! makes a stale id (a straggler event naming a slot that was freed and
//! recycled) a *detected* miss instead of silently decoding the slot's
//! next tenant — the failure mode the fault-injection tests in this
//! module pin down, counted by `Network::stale_frame_releases`.
//!
//! Slots are freed when the last outstanding `SignalEnd` releases them, so
//! allocation order (and therefore every `TxId` value) is a deterministic
//! function of the event sequence.

use mwn_phy::TxId;
use mwn_pkt::MacFrame;

/// Bits of a [`TxId`] holding the slot index; the high bits hold the
/// slot's reuse generation. 2^32 concurrent transmissions is unreachable
/// (the air holds a handful), so the split never constrains capacity.
const SLOT_BITS: u32 = 32;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// One in-flight transmission: the shared payload plus the number of
/// receivers whose `SignalEnd` has not yet fired.
#[derive(Debug)]
struct Slot {
    generation: u32,
    remaining: usize,
    frame: Option<MacFrame>,
}

/// Generation-checked slab of in-flight frames (see module docs).
#[derive(Debug, Default)]
pub(super) struct FrameSlab {
    slots: Vec<Slot>,
    /// Freed slot indices, reused LIFO so the working set stays compact.
    free: Vec<u32>,
    /// Releases that named a dead or recycled id — each one is a dropped
    /// straggler, never a replay into the slot's next tenant.
    stale_releases: u64,
}

impl FrameSlab {
    pub(super) fn new() -> Self {
        FrameSlab::default()
    }

    fn pack(slot: u32, generation: u32) -> TxId {
        TxId((u64::from(generation) << SLOT_BITS) | u64::from(slot))
    }

    fn unpack(tx: TxId) -> (u32, u32) {
        ((tx.0 & SLOT_MASK) as u32, (tx.0 >> SLOT_BITS) as u32)
    }

    /// Stores `frame` with `remaining` outstanding receivers and returns
    /// its generation-tagged id.
    ///
    /// # Panics
    ///
    /// Panics if `remaining` is zero: a transmission nobody receives is
    /// never inserted (the caller skips the slab entirely).
    pub(super) fn insert(&mut self, frame: MacFrame, remaining: usize) -> TxId {
        assert!(remaining > 0, "in-flight frame needs at least one receiver");
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.frame.is_none(), "free list pointed at a live slot");
                s.remaining = remaining;
                s.frame = Some(frame);
                Self::pack(slot, s.generation)
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    generation: 0,
                    remaining,
                    frame: Some(frame),
                });
                Self::pack(slot, 0)
            }
        }
    }

    /// The payload of transmission `tx`, if its slot is live and the
    /// generation matches (stale ids miss, they never alias).
    pub(super) fn get(&self, tx: TxId) -> Option<&MacFrame> {
        let (slot, generation) = Self::unpack(tx);
        let s = self.slots.get(slot as usize)?;
        if s.generation != generation {
            return None;
        }
        s.frame.as_ref()
    }

    /// Drops one receiver's claim on `tx`; the last release vacates the
    /// slot and bumps its generation. A stale id (already fully released,
    /// or from a recycled slot) is rejected and counted, never applied to
    /// the slot's next tenant.
    pub(super) fn release(&mut self, tx: TxId) {
        let (slot, generation) = Self::unpack(tx);
        let Some(s) = self.slots.get_mut(slot as usize) else {
            self.stale_releases += 1;
            return;
        };
        if s.generation != generation || s.frame.is_none() {
            self.stale_releases += 1;
            return;
        }
        s.remaining -= 1;
        if s.remaining == 0 {
            s.frame = None;
            s.generation = s.generation.wrapping_add(1);
            self.free.push(slot);
        }
    }

    /// Transmissions still on the air.
    pub(super) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Releases that named a dead or recycled id (see [`release`](Self::release)).
    pub(super) fn stale_releases(&self) -> u64 {
        self.stale_releases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_pkt::NodeId;

    fn frame(seq: u16) -> MacFrame {
        MacFrame::Rts {
            src: NodeId(0),
            dst: NodeId(seq as u32 + 1),
            nav: mwn_sim::SimDuration::from_micros(100),
        }
    }

    #[test]
    fn insert_get_release_roundtrip() {
        let mut slab = FrameSlab::new();
        let tx = slab.insert(frame(1), 2);
        assert!(slab.get(tx).is_some());
        assert_eq!(slab.live(), 1);
        slab.release(tx);
        assert!(slab.get(tx).is_some(), "one receiver still outstanding");
        slab.release(tx);
        assert!(slab.get(tx).is_none(), "fully released");
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.stale_releases(), 0);
    }

    #[test]
    fn slot_reuse_bumps_generation_so_ids_never_alias() {
        let mut slab = FrameSlab::new();
        let old = slab.insert(frame(1), 1);
        slab.release(old);
        let new = slab.insert(frame(2), 1);
        assert_ne!(old, new, "recycled slot must mint a fresh id");
        assert!(slab.get(old).is_none(), "stale id must not see new tenant");
        assert!(slab.get(new).is_some());
    }

    /// Fault injection: a stale frame id arriving after its slot was
    /// recycled must be rejected and counted — releasing it must not
    /// touch (let alone free) the slot's next tenant.
    #[test]
    fn stale_release_is_rejected_not_replayed() {
        let mut slab = FrameSlab::new();
        let old = slab.insert(frame(1), 1);
        slab.release(old);
        let new = slab.insert(frame(2), 3);
        // Straggler releases of the dead id: all rejected.
        slab.release(old);
        slab.release(old);
        assert_eq!(slab.stale_releases(), 2);
        assert!(slab.get(new).is_some(), "tenant survived stale releases");
        slab.release(new);
        slab.release(new);
        assert!(slab.get(new).is_some(), "refcount untouched by stale ids");
        slab.release(new);
        assert!(slab.get(new).is_none());
        // An id for a slot that never existed is also just counted.
        slab.release(TxId(u64::from(u32::MAX)));
        assert_eq!(slab.stale_releases(), 3);
    }

    #[test]
    fn allocation_order_is_deterministic_lifo() {
        let mut slab = FrameSlab::new();
        let a = slab.insert(frame(1), 1);
        let b = slab.insert(frame(2), 1);
        slab.release(a);
        slab.release(b);
        // LIFO: b's slot comes back first.
        let c = slab.insert(frame(3), 1);
        assert_eq!(c.0 & SLOT_MASK, b.0 & SLOT_MASK);
        assert_eq!(c.0 >> SLOT_BITS, (b.0 >> SLOT_BITS) + 1);
    }
}
