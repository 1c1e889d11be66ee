//! A slab store for in-flight packets, so queued `Deliver` events carry
//! a 4-byte slot index instead of an owned [`Packet`].
//!
//! Lifecycle: [`PacketSlab::stash`] on transmit/inject, exactly one
//! [`PacketSlab::reclaim`] when the delivery event pops (before the
//! destination node is even looked up, so a packet addressed to a
//! removed node is still freed). Freed slots go on a free list and are
//! reused LIFO, which keeps the backing vector at the in-flight
//! high-water mark instead of growing with total traffic.
//!
//! This is a pure storage move: the slab introduces no ordering of its
//! own, so the event stream — and with it the deterministic profile
//! plane — is untouched by the indirection.

use lucent_packet::Packet;

/// An index into the [`PacketSlab`]; owned by exactly one queued
/// delivery event between `stash` and `reclaim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSlot(pub(crate) u32);

/// Slab of in-flight packets with LIFO slot reuse.
#[derive(Clone, Default)]
pub struct PacketSlab {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
    live: usize,
    live_hwm: usize,
}

impl PacketSlab {
    /// Store a packet, returning its slot. Reuses a freed slot when one
    /// exists; otherwise grows the backing vector.
    pub fn stash(&mut self, pkt: Packet) -> PacketSlot {
        self.live += 1;
        if self.live > self.live_hwm {
            self.live_hwm = self.live;
        }
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(pkt);
                PacketSlot(idx)
            }
            None => {
                let idx = self.slots.len();
                // Mirrors `Network::add_node`: id-space exhaustion is a
                // build-scale bug that must fail loudly, not wrap.
                assert!(
                    u32::try_from(idx).is_ok(),
                    "packet slab overflow: {idx} in-flight packets exceeds u32 slot space"
                );
                self.slots.push(Some(pkt));
                PacketSlot(idx as u32)
            }
        }
    }

    /// Take the packet back and free its slot. `None` if the slot is
    /// not live (double reclaim or a forged index) — callers treat that
    /// as a dropped delivery rather than a panic.
    pub fn reclaim(&mut self, slot: PacketSlot) -> Option<Packet> {
        let pkt = self.slots.get_mut(slot.0 as usize)?.take()?;
        self.live -= 1;
        self.free.push(slot.0);
        Some(pkt)
    }

    /// Packets currently in flight.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Most packets ever simultaneously in flight — the slab's resident
    /// footprint in slots.
    pub fn live_hwm(&self) -> usize {
        self.live_hwm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_packet::UdpHeader;
    use std::net::Ipv4Addr;

    fn pkt(tag: u8) -> Packet {
        Packet::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            UdpHeader::new(1, 2),
            &[tag][..],
        )
    }

    #[test]
    fn stash_then_reclaim_roundtrips() {
        let mut slab = PacketSlab::default();
        let a = slab.stash(pkt(1));
        let b = slab.stash(pkt(2));
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.reclaim(b).unwrap().as_udp().unwrap().1[0], 2);
        assert_eq!(slab.reclaim(a).unwrap().as_udp().unwrap().1[0], 1);
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.live_hwm(), 2);
    }

    #[test]
    fn slots_are_reused_lifo() {
        let mut slab = PacketSlab::default();
        let a = slab.stash(pkt(1));
        assert!(slab.reclaim(a).is_some());
        let b = slab.stash(pkt(2));
        assert_eq!(a, b, "freed slot is reused");
        assert_eq!(slab.live_hwm(), 1, "reuse keeps the footprint flat");
    }

    #[test]
    fn double_reclaim_is_none_not_panic() {
        let mut slab = PacketSlab::default();
        let a = slab.stash(pkt(1));
        assert!(slab.reclaim(a).is_some());
        assert!(slab.reclaim(a).is_none());
        assert!(slab.reclaim(PacketSlot(99)).is_none());
    }
}
