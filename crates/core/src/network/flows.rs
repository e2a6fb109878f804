//! The flow slab: one generation-checked slot per flow.
//!
//! Persistent (scenario-listed) flows occupy slots `0..n` forever;
//! open-loop traffic flows churn through the remainder via a LIFO free
//! list. Each vacated slot bumps its generation, so a stale [`FlowId`]
//! (a packet or timer from a finished flow) never reaches the slot's
//! next tenant.

use mwn_pkt::{FlowId, NodeId};
use mwn_sim::stats::TimeWeightedAverage;
use mwn_sim::SimTime;

use super::{SinkAgent, SourceAgent};

/// One live flow: its endpoints, both transport agents and the
/// accounting the network reports per flow.
#[derive(Debug)]
pub(super) struct Flow {
    pub src: NodeId,
    pub dst: NodeId,
    pub source: SourceAgent,
    pub sink: SinkAgent,
    /// Packets delivered in order at the sink (goodput numerator).
    pub delivered: u64,
    /// When the sink last advanced (for latency measurements).
    pub last_delivery: Option<SimTime>,
    /// Time-weighted congestion window (TCP only).
    pub cwnd_twa: TimeWeightedAverage,
    /// Traffic class index, or [`super::PERSISTENT`].
    pub class: u32,
    /// When the transaction this leg belongs to started (the request
    /// arrival, even for a response leg).
    pub started: SimTime,
    /// Packets completed by earlier legs of the same transaction.
    pub carried: u64,
    /// Response-leg size to spawn once this leg completes.
    pub response: Option<u64>,
}

/// One slot of the flow slab. The generation counter increments every
/// time the slot is vacated.
#[derive(Debug)]
pub(super) struct FlowSlot {
    pub generation: u32,
    pub flow: Option<Flow>,
}

/// The flow slab plus its free list.
#[derive(Debug, Default)]
pub(super) struct Flows {
    pub slots: Vec<FlowSlot>,
    /// Vacated slot indices, reused LIFO.
    pub free: Vec<u32>,
}

impl Flows {
    /// Appends a live flow at build time (persistent scenario flows).
    pub(super) fn push_persistent(&mut self, flow: Flow) {
        self.slots.push(FlowSlot {
            generation: 0,
            flow: Some(flow),
        });
    }

    /// Slots allocated so far (not all occupied).
    pub(super) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slots.
    pub(super) fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.flow.is_some()).count()
    }

    /// Generation-checked lookup.
    pub(super) fn get(&self, id: FlowId) -> Option<&Flow> {
        let slot = self.slots.get(id.slot() as usize)?;
        if slot.generation != id.generation() {
            return None;
        }
        slot.flow.as_ref()
    }

    /// Generation-checked mutable lookup.
    pub(super) fn get_mut(&mut self, id: FlowId) -> Option<&mut Flow> {
        let slot = self.slots.get_mut(id.slot() as usize)?;
        if slot.generation != id.generation() {
            return None;
        }
        slot.flow.as_mut()
    }

    /// Appends (in slot order) every live TCP flow whose source is `node`
    /// — the ELFN route-failure fanout set.
    pub(super) fn collect_tcp_src_flows(&self, node: NodeId, out: &mut Vec<FlowId>) {
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(flow) = &slot.flow else { continue };
            if flow.src == node && matches!(flow.source, SourceAgent::Tcp(_)) {
                out.push(FlowId::from_parts(i as u32, slot.generation));
            }
        }
    }

    /// Claims a slot for a new traffic flow: `(slot, generation)`.
    pub(super) fn spawn_slot(&mut self) -> (u32, u32) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(FlowSlot {
                generation: 0,
                flow: None,
            });
            self.slots.len() as u32 - 1
        });
        (slot, self.slots[slot as usize].generation)
    }

    /// Fills a slot claimed by [`spawn_slot`](Self::spawn_slot).
    pub(super) fn fill_slot(&mut self, slot: u32, flow: Flow) {
        let entry = &mut self.slots[slot as usize];
        debug_assert!(entry.flow.is_none(), "filling an occupied slot");
        entry.flow = Some(flow);
    }

    /// Vacates a completed flow's slot (bumping its generation) and
    /// returns the evicted flow.
    pub(super) fn vacate(&mut self, id: FlowId) -> Flow {
        let entry = &mut self.slots[id.slot() as usize];
        debug_assert_eq!(entry.generation, id.generation(), "stale completion");
        let flow = entry.flow.take().expect("completing an empty slot");
        entry.generation = (entry.generation + 1) % FlowId::GENERATIONS;
        self.free.push(id.slot());
        flow
    }
}
