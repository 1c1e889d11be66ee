//! The transmission control block: a pure, host-independent TCP state
//! machine. All I/O is explicit — segments in via [`Tcb::on_segment`],
//! segments out via [`Tcb::poll`] — which makes every transition unit
//! testable without a network.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use lucent_support::Bytes;
use lucent_packet::tcp::{seq, TcpFlags, TcpHeader};
use lucent_netsim::SimTime;

use crate::socket::{LoggedEvent, SocketEvent, TcpState};

/// Default maximum segment size used by hosts in the simulator.
pub const DEFAULT_MSS: usize = 1400;
/// SYN retransmission limit (the paper's TCP/IP-filtering probe makes five
/// independent connect attempts; each must fail in bounded virtual time).
pub const SYN_RETRIES: u32 = 2;
/// Data/FIN retransmission limit.
pub const DATA_RETRIES: u32 = 4;
/// Base retransmission timeout; doubles per retry.
pub const RTO_BASE_MS: u64 = 400;
/// TIME-WAIT duration (smoltcp uses a fixed 10 s; we follow).
pub const TIME_WAIT_MS: u64 = 10_000;

/// A segment sitting in the retransmission queue.
#[derive(Debug, Clone)]
struct RtxSeg {
    seq: u32,
    data: Bytes,
    syn: bool,
    fin: bool,
}

impl RtxSeg {
    /// First sequence number after this segment.
    fn end_seq(&self) -> u32 {
        self.seq
            .wrapping_add(self.data.len() as u32)
            .wrapping_add(u32::from(self.syn))
            .wrapping_add(u32::from(self.fin))
    }
}

/// What the host should do about timers after a `poll`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerAsk {
    /// Nothing outstanding; no timer needed.
    None,
    /// Arm the retransmission timer for the given generation after `ms`.
    Retransmit {
        /// Millisecond delay until the timer should fire.
        ms: u64,
        /// Generation that must still match when it fires.
        gen: u64,
    },
    /// Arm the TIME-WAIT expiry timer.
    TimeWait {
        /// Millisecond delay until expiry.
        ms: u64,
        /// Generation that must still match when it fires.
        gen: u64,
    },
}

/// The connection state machine.
#[derive(Debug)]
pub struct Tcb {
    /// Current state.
    pub state: TcpState,
    /// Local (address, port).
    pub local: (Ipv4Addr, u16),
    /// Remote (address, port).
    pub remote: (Ipv4Addr, u16),
    iss: u32,
    irs: u32,
    snd_una: u32,
    snd_nxt: u32,
    rcv_nxt: u32,
    send_buf: VecDeque<u8>,
    rtx: VecDeque<RtxSeg>,
    /// Ordered received byte stream, not yet consumed by the application.
    pub recv_buf: Vec<u8>,
    /// Timestamped event log.
    pub events: Vec<LoggedEvent>,
    fin_queued: bool,
    fin_seq: Option<u32>,
    /// Browser-like behaviour: on receiving the peer's FIN while
    /// established, immediately close our side too (the paper's clients
    /// do this, which is what makes the forged-FIN censorship effective).
    pub auto_close_on_fin: bool,
    mss: usize,
    pending_ack: bool,
    retransmit_now: bool,
    rtx_count: u32,
    timer_armed: bool,
    /// Bumped whenever outstanding timers become stale.
    pub timer_gen: u64,
    /// Set when the state machine wants to emit a RST (abort).
    rst_pending: bool,
}

impl Tcb {
    /// Active open: returns a TCB in `SynSent`; `poll` will emit the SYN.
    pub fn connect(local: (Ipv4Addr, u16), remote: (Ipv4Addr, u16), iss: u32, now: SimTime) -> Self {
        let _ = now;
        Tcb {
            state: TcpState::SynSent,
            local,
            remote,
            iss,
            irs: 0,
            snd_una: iss,
            snd_nxt: iss,
            rcv_nxt: 0,
            send_buf: VecDeque::new(),
            rtx: VecDeque::new(),
            recv_buf: Vec::new(),
            events: Vec::new(),
            fin_queued: false,
            fin_seq: None,
            auto_close_on_fin: true,
            mss: DEFAULT_MSS,
            pending_ack: false,
            retransmit_now: false,
            rtx_count: 0,
            timer_armed: false,
            timer_gen: 0,
            rst_pending: false,
        }
    }

    /// Passive open from a received SYN: returns a TCB in `SynRcvd`;
    /// `poll` will emit the SYN-ACK.
    pub fn accept(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        iss: u32,
        syn: &TcpHeader,
        now: SimTime,
    ) -> Self {
        let mut tcb = Tcb::connect(local, remote, iss, now);
        tcb.state = TcpState::SynRcvd;
        tcb.irs = syn.seq;
        tcb.rcv_nxt = syn.seq.wrapping_add(1);
        if let Some(mss) = syn.mss {
            tcb.mss = tcb.mss.min(usize::from(mss));
        }
        tcb
    }

    /// Queue application bytes for transmission.
    pub fn send(&mut self, bytes: &[u8]) {
        self.send_buf.extend(bytes);
    }

    /// Orderly close: a FIN is emitted once queued data has been sent.
    pub fn close(&mut self) {
        self.fin_queued = true;
    }

    /// Abort: transition to `Closed` and emit a RST on the next poll.
    pub fn abort(&mut self) {
        if self.state != TcpState::Closed {
            self.rst_pending = true;
            self.enter_closed(None);
        }
    }

    /// Take all received bytes, draining the buffer.
    pub fn take_received(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.recv_buf)
    }

    /// True when the peer has acknowledged everything we sent so far and
    /// our send queue is empty.
    pub fn send_drained(&self) -> bool {
        self.send_buf.is_empty() && self.rtx.is_empty()
    }

    fn log(&mut self, now: SimTime, event: SocketEvent) {
        self.events.push(LoggedEvent { at: now, event });
    }

    fn enter_closed(&mut self, _now: Option<SimTime>) {
        self.state = TcpState::Closed;
        self.rtx.clear();
        self.send_buf.clear();
        self.timer_gen += 1;
        self.timer_armed = false;
    }

    fn fin_acked(&self, ack: u32) -> bool {
        self.fin_seq
            .map(|fs| seq::le(fs.wrapping_add(1), ack))
            .unwrap_or(false)
    }

    /// Handle an inbound segment addressed to this connection.
    pub fn on_segment(&mut self, h: &TcpHeader, payload: &[u8], now: SimTime) {
        if self.state == TcpState::Closed {
            return;
        }

        // --- RST processing -------------------------------------------------
        if h.flags.contains(TcpFlags::RST) {
            let acceptable = match self.state {
                // Before synchronization a RST is believable only when it
                // acknowledges our SYN.
                TcpState::SynSent => h.flags.contains(TcpFlags::ACK) && h.ack == self.snd_nxt,
                _ => {
                    // Accept RSTs in a generous window around rcv_nxt: the
                    // middleboxes forge plausible but not always exact
                    // sequence numbers.
                    seq::in_range(
                        h.seq,
                        self.rcv_nxt.wrapping_sub(4096),
                        self.rcv_nxt.wrapping_add(65536),
                    )
                }
            };
            if acceptable {
                self.log(now, SocketEvent::Reset);
                self.enter_closed(Some(now));
            }
            return;
        }

        // --- SYN processing -------------------------------------------------
        if h.flags.contains(TcpFlags::SYN) {
            match self.state {
                TcpState::SynSent if h.flags.contains(TcpFlags::ACK) => {
                    if h.ack != self.iss.wrapping_add(1) {
                        return; // bogus SYN-ACK
                    }
                    self.irs = h.seq;
                    self.rcv_nxt = h.seq.wrapping_add(1);
                    self.snd_una = h.ack;
                    self.rtx.retain(|s| !s.syn);
                    if let Some(mss) = h.mss {
                        self.mss = self.mss.min(usize::from(mss));
                    }
                    self.state = TcpState::Established;
                    self.pending_ack = true;
                    self.rtx_count = 0;
                    self.timer_gen += 1;
                    self.timer_armed = false;
                    self.log(now, SocketEvent::Established);
                }
                TcpState::SynRcvd => {
                    // Duplicate SYN: let the queued SYN-ACK retransmit.
                    self.pending_ack = false;
                }
                _ => {
                    // SYN on a synchronized connection: acknowledge and
                    // otherwise ignore (challenge-ACK style).
                    self.pending_ack = true;
                }
            }
            return;
        }

        // --- ACK processing -------------------------------------------------
        if h.flags.contains(TcpFlags::ACK) {
            self.process_ack(h.ack, now);
        } else if self.state == TcpState::SynSent {
            return; // only SYN/RST are meaningful before synchronization
        }
        if self.state == TcpState::Closed {
            return; // LastAck completion
        }

        // --- Data processing ------------------------------------------------
        let seg_len = payload.len();
        if seg_len > 0 {
            let receivable = matches!(
                self.state,
                TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
            );
            if receivable {
                if h.seq == self.rcv_nxt {
                    self.recv_buf.extend_from_slice(payload);
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(seg_len as u32);
                    self.pending_ack = true;
                    self.log(now, SocketEvent::Data { len: seg_len });
                } else if seq::lt(h.seq, self.rcv_nxt)
                    && seq::lt(self.rcv_nxt, h.seq.wrapping_add(seg_len as u32))
                {
                    // Overlapping retransmission: take the new suffix.
                    let skip = self.rcv_nxt.wrapping_sub(h.seq) as usize;
                    let fresh = &payload[skip..];
                    self.recv_buf.extend_from_slice(fresh);
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(fresh.len() as u32);
                    self.pending_ack = true;
                    self.log(now, SocketEvent::Data { len: fresh.len() });
                } else {
                    // Out of order or stale duplicate: drop, re-ACK.
                    self.pending_ack = true;
                }
            } else {
                self.pending_ack = true;
            }
        }

        // --- FIN processing -------------------------------------------------
        if h.flags.contains(TcpFlags::FIN) {
            let fin_pos = h.seq.wrapping_add(seg_len as u32);
            if fin_pos == self.rcv_nxt && self.state.is_synchronized() {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                self.pending_ack = true;
                self.log(now, SocketEvent::PeerFin);
                match self.state {
                    TcpState::Established => {
                        self.state = TcpState::CloseWait;
                        if self.auto_close_on_fin {
                            self.fin_queued = true;
                        }
                    }
                    TcpState::FinWait1 => {
                        // Whether we advance to TimeWait or Closing depends
                        // on whether our FIN was acknowledged by this
                        // segment (already processed above).
                        if self.fin_acked(self.snd_una) {
                            self.state = TcpState::TimeWait;
                        } else {
                            self.state = TcpState::Closing;
                        }
                    }
                    TcpState::FinWait2 => self.state = TcpState::TimeWait,
                    _ => {}
                }
            } else if self.state.is_synchronized() {
                self.pending_ack = true; // duplicate FIN
            }
        }
    }

    fn process_ack(&mut self, ack: u32, now: SimTime) {
        if !seq::lt(self.snd_una, ack) {
            return; // duplicate or old ACK
        }
        if seq::lt(self.snd_nxt, ack) {
            self.pending_ack = true; // acks data we never sent
            return;
        }
        self.snd_una = ack;
        while let Some(front) = self.rtx.front_mut() {
            if seq::le(front.end_seq(), ack) {
                self.rtx.pop_front();
                continue;
            }
            // Partial ACK: trim the acknowledged prefix off the front
            // segment (data only; SYN/FIN are atomic).
            if !front.syn && !front.fin && seq::lt(front.seq, ack) {
                let skip = ack.wrapping_sub(front.seq) as usize;
                if skip < front.data.len() {
                    front.data = front.data.slice(skip..);
                    front.seq = ack;
                }
            }
            break;
        }
        self.rtx_count = 0;
        self.timer_gen += 1;
        self.timer_armed = false;

        match self.state {
            TcpState::SynRcvd if seq::le(self.iss.wrapping_add(1), ack) => {
                self.state = TcpState::Established;
                self.log(now, SocketEvent::Established);
            }
            TcpState::FinWait1 if self.fin_acked(ack) => self.state = TcpState::FinWait2,
            TcpState::Closing if self.fin_acked(ack) => self.state = TcpState::TimeWait,
            TcpState::LastAck if self.fin_acked(ack) => {
                self.log(now, SocketEvent::Closed);
                self.enter_closed(Some(now));
            }
            _ => {}
        }
    }

    /// Retransmission timer fired (host verified the generation).
    pub fn on_retransmit_timeout(&mut self, now: SimTime) {
        if self.rtx.is_empty() || self.state == TcpState::Closed {
            return;
        }
        let limit = if self.rtx.front().map(|s| s.syn).unwrap_or(false) {
            SYN_RETRIES
        } else {
            DATA_RETRIES
        };
        if self.rtx_count >= limit {
            self.log(now, SocketEvent::TimedOut);
            // A host that gives up on an unresponsive peer tears the
            // connection down with a RST — the paper observes exactly this
            // from clients whose FIN handshake is black-holed by an
            // interceptive middlebox.
            self.rst_pending = true;
            self.enter_closed(Some(now));
            return;
        }
        self.rtx_count += 1;
        self.retransmit_now = true;
        self.timer_armed = false;
    }

    /// TIME-WAIT expired (host verified the generation).
    pub fn on_time_wait_timeout(&mut self, now: SimTime) {
        if self.state == TcpState::TimeWait {
            self.log(now, SocketEvent::Closed);
            self.enter_closed(Some(now));
        }
    }

    /// Produce every segment the connection currently owes the wire, plus
    /// a timer request. Idempotent between events: a second call without
    /// intervening input yields nothing new.
    pub fn poll(&mut self, _now: SimTime) -> (Vec<(TcpHeader, Bytes)>, TimerAsk) {
        let mut out = Vec::new();

        if self.rst_pending {
            self.rst_pending = false;
            let mut h = TcpHeader::new(self.local.1, self.remote.1, TcpFlags::RST | TcpFlags::ACK);
            h.seq = self.snd_nxt;
            h.ack = self.rcv_nxt;
            out.push((h, Bytes::new()));
            return (out, TimerAsk::None);
        }
        if self.state == TcpState::Closed {
            return (out, TimerAsk::None);
        }

        // Retransmit everything outstanding when the timer fired.
        if self.retransmit_now {
            self.retransmit_now = false;
            for seg in &self.rtx {
                out.push((self.header_for(seg), seg.data.clone()));
            }
            self.pending_ack = false;
        }

        // Initial SYN (active) / SYN-ACK (passive).
        if self.snd_nxt == self.iss {
            let syn = RtxSeg { seq: self.iss, data: Bytes::new(), syn: true, fin: false };
            out.push((self.header_for(&syn), Bytes::new()));
            self.rtx.push_back(syn);
            self.snd_nxt = self.iss.wrapping_add(1);
        }

        // Data segments.
        if self.state.can_send() || self.state == TcpState::SynRcvd {
            while !self.send_buf.is_empty() && self.state != TcpState::SynRcvd {
                let take = self.send_buf.len().min(self.mss);
                let chunk: Vec<u8> = self.send_buf.drain(..take).collect();
                let seg = RtxSeg { seq: self.snd_nxt, data: Bytes::from(chunk), syn: false, fin: false };
                out.push((self.header_for(&seg), seg.data.clone()));
                self.snd_nxt = self.snd_nxt.wrapping_add(take as u32);
                self.rtx.push_back(seg);
                self.pending_ack = false;
            }
        }

        // FIN.
        if self.fin_queued
            && self.fin_seq.is_none()
            && self.send_buf.is_empty()
            && matches!(self.state, TcpState::Established | TcpState::CloseWait)
        {
            let seg = RtxSeg { seq: self.snd_nxt, data: Bytes::new(), syn: false, fin: true };
            out.push((self.header_for(&seg), Bytes::new()));
            self.fin_seq = Some(self.snd_nxt);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.rtx.push_back(seg);
            self.pending_ack = false;
            self.state = match self.state {
                TcpState::Established => TcpState::FinWait1,
                TcpState::CloseWait => TcpState::LastAck,
                s => s,
            };
        }

        // Bare ACK if still owed.
        if self.pending_ack {
            self.pending_ack = false;
            let mut h = TcpHeader::new(self.local.1, self.remote.1, TcpFlags::ACK);
            h.seq = self.snd_nxt;
            h.ack = self.rcv_nxt;
            out.push((h, Bytes::new()));
        }

        // Timer request.
        let ask = if self.state == TcpState::TimeWait {
            if !self.timer_armed {
                self.timer_armed = true;
                self.timer_gen += 1;
                TimerAsk::TimeWait { ms: TIME_WAIT_MS, gen: self.timer_gen }
            } else {
                TimerAsk::None
            }
        } else if !self.rtx.is_empty() && !self.timer_armed {
            self.timer_armed = true;
            let ms = RTO_BASE_MS << self.rtx_count.min(6);
            TimerAsk::Retransmit { ms, gen: self.timer_gen }
        } else {
            TimerAsk::None
        };
        (out, ask)
    }

    fn header_for(&self, seg: &RtxSeg) -> TcpHeader {
        let mut flags = TcpFlags::empty();
        let mut mss = None;
        if seg.syn {
            flags = flags | TcpFlags::SYN;
            mss = Some(self.mss as u16);
            if self.state == TcpState::SynRcvd {
                flags = flags | TcpFlags::ACK;
            }
        } else {
            flags = flags | TcpFlags::ACK;
        }
        if seg.fin {
            flags = flags | TcpFlags::FIN;
        }
        if !seg.data.is_empty() {
            flags = flags | TcpFlags::PSH;
        }
        let mut h = TcpHeader::new(self.local.1, self.remote.1, flags);
        h.seq = seg.seq;
        h.ack = if self.state == TcpState::SynSent && seg.syn { 0 } else { self.rcv_nxt };
        h.mss = mss;
        h
    }

    /// Current receive-side next expected sequence number (used by raw
    /// probe tooling to craft in-window packets).
    pub fn rcv_nxt(&self) -> u32 {
        self.rcv_nxt
    }

    /// Next sequence number we would send.
    pub fn snd_nxt(&self) -> u32 {
        self.snd_nxt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1000)
    }

    fn pair() -> (Tcb, Tcb) {
        let a = Tcb::connect((A_IP, 4000), (B_IP, 80), 1000, t(0));
        // b is created on SYN arrival by the host; tests do it manually.
        let b_placeholder = Tcb::connect((B_IP, 80), (A_IP, 4000), 9000, t(0));
        (a, b_placeholder)
    }

    /// Shuttle segments between two TCBs until both are quiescent.
    fn pump(a: &mut Tcb, b: &mut Tcb, now: SimTime) {
        for _ in 0..64 {
            let (from_a, _) = a.poll(now);
            let (from_b, _) = b.poll(now);
            if from_a.is_empty() && from_b.is_empty() {
                return;
            }
            for (h, p) in from_a {
                b.on_segment(&h, &p, now);
            }
            for (h, p) in from_b {
                a.on_segment(&h, &p, now);
            }
        }
        panic!("pump did not quiesce");
    }

    /// Full client/server setup through the handshake.
    fn established() -> (Tcb, Tcb) {
        let (mut a, _) = pair();
        let (syn_out, _) = a.poll(t(0));
        assert_eq!(syn_out.len(), 1);
        let (syn, _) = &syn_out[0];
        assert!(syn.flags.contains(TcpFlags::SYN));
        let mut b = Tcb::accept((B_IP, 80), (A_IP, 4000), 9000, syn, t(0));
        pump(&mut a, &mut b, t(1));
        assert_eq!(a.state, TcpState::Established);
        assert_eq!(b.state, TcpState::Established);
        (a, b)
    }

    #[test]
    fn three_way_handshake_establishes_both_ends() {
        let (a, b) = established();
        assert!(a.events.iter().any(|e| e.event == SocketEvent::Established));
        assert!(b.events.iter().any(|e| e.event == SocketEvent::Established));
    }

    #[test]
    fn data_flows_both_directions() {
        let (mut a, mut b) = established();
        a.send(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
        pump(&mut a, &mut b, t(2));
        assert_eq!(b.take_received(), b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
        b.send(b"HTTP/1.1 200 OK\r\n\r\nhello");
        pump(&mut a, &mut b, t(3));
        assert_eq!(a.take_received(), b"HTTP/1.1 200 OK\r\n\r\nhello");
        assert!(a.send_drained() && b.send_drained());
    }

    #[test]
    fn large_send_is_segmented_at_mss() {
        let (mut a, mut b) = established();
        let big = vec![0xabu8; DEFAULT_MSS * 3 + 17];
        a.send(&big);
        let (segs, _) = a.poll(t(2));
        assert_eq!(segs.len(), 4);
        assert!(segs[..3].iter().all(|(_, p)| p.len() == DEFAULT_MSS));
        assert_eq!(segs[3].1.len(), 17);
        for (h, p) in segs {
            b.on_segment(&h, &p, t(2));
        }
        assert_eq!(b.recv_buf, big);
    }

    #[test]
    fn orderly_close_reaches_closed_on_both_ends() {
        let (mut a, mut b) = established();
        a.close();
        pump(&mut a, &mut b, t(2));
        // b auto-closes on FIN (browser-like default), so both FINs fly.
        assert_eq!(b.state, TcpState::Closed);
        assert_eq!(a.state, TcpState::TimeWait);
        a.on_time_wait_timeout(t(20_000));
        assert_eq!(a.state, TcpState::Closed);
        assert!(a.events.iter().any(|e| e.event == SocketEvent::PeerFin));
        assert!(b.events.iter().any(|e| e.event == SocketEvent::PeerFin));
    }

    #[test]
    fn manual_close_without_auto() {
        let (mut a, mut b) = established();
        b.auto_close_on_fin = false;
        a.close();
        pump(&mut a, &mut b, t(2));
        assert_eq!(a.state, TcpState::FinWait2);
        assert_eq!(b.state, TcpState::CloseWait);
        // b can still send data in CloseWait.
        b.send(b"late data");
        pump(&mut a, &mut b, t(3));
        assert_eq!(a.take_received(), b"late data");
        b.close();
        pump(&mut a, &mut b, t(4));
        assert_eq!(b.state, TcpState::Closed);
        assert_eq!(a.state, TcpState::TimeWait);
    }

    #[test]
    fn forged_fin_with_payload_terminates_like_the_censor_does() {
        // A wiretap middlebox injects `200 OK` + FIN with the server's
        // address; the client must accept the data, see PeerFin, and
        // auto-close.
        let (mut a, _b) = established();
        let notif = b"HTTP/1.1 200 OK\r\n\r\n<html>blocked</html>";
        let mut h = TcpHeader::new(80, 4000, TcpFlags::ACK | TcpFlags::FIN | TcpFlags::PSH);
        h.seq = a.rcv_nxt();
        h.ack = a.snd_nxt();
        a.on_segment(&h, notif, t(5));
        assert_eq!(a.recv_buf, notif);
        assert!(a.events.iter().any(|e| e.event == SocketEvent::PeerFin));
        // Client responds with its own FIN (auto-close), entering LastAck.
        let (out, _) = a.poll(t(5));
        assert!(out.iter().any(|(h, _)| h.flags.contains(TcpFlags::FIN)));
        assert_eq!(a.state, TcpState::LastAck);
    }

    #[test]
    fn rst_tears_down_connection() {
        let (mut a, _b) = established();
        let mut h = TcpHeader::new(80, 4000, TcpFlags::RST);
        h.seq = a.rcv_nxt();
        a.on_segment(&h, b"", t(5));
        assert_eq!(a.state, TcpState::Closed);
        assert!(a.events.iter().any(|e| e.event == SocketEvent::Reset));
    }

    #[test]
    fn rst_with_wildly_wrong_seq_is_ignored() {
        let (mut a, _b) = established();
        let mut h = TcpHeader::new(80, 4000, TcpFlags::RST);
        h.seq = a.rcv_nxt().wrapping_add(1_000_000);
        a.on_segment(&h, b"", t(5));
        assert_eq!(a.state, TcpState::Established);
    }

    #[test]
    fn out_of_order_data_is_dropped_and_reacked() {
        let (mut a, _b) = established();
        let mut h = TcpHeader::new(80, 4000, TcpFlags::ACK | TcpFlags::PSH);
        h.seq = a.rcv_nxt().wrapping_add(100); // a gap
        h.ack = a.snd_nxt();
        a.on_segment(&h, b"future data", t(5));
        assert!(a.recv_buf.is_empty());
        let (out, _) = a.poll(t(5));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0.ack, a.rcv_nxt());
    }

    #[test]
    fn overlapping_retransmission_takes_only_fresh_suffix() {
        let (mut a, _b) = established();
        let start = a.rcv_nxt();
        let mut h = TcpHeader::new(80, 4000, TcpFlags::ACK | TcpFlags::PSH);
        h.seq = start;
        h.ack = a.snd_nxt();
        a.on_segment(&h, b"hello ", t(5));
        // Retransmission covering old + new bytes.
        let mut h2 = h.clone();
        h2.seq = start;
        a.on_segment(&h2, b"hello world", t(6));
        assert_eq!(a.recv_buf, b"hello world");
    }

    #[test]
    fn syn_retransmission_then_timeout_gives_up_with_rst() {
        let (mut a, _) = pair();
        let (_, ask) = a.poll(t(0));
        let TimerAsk::Retransmit { gen, .. } = ask else { panic!("want rtx timer") };
        assert_eq!(gen, a.timer_gen);
        for i in 0..=SYN_RETRIES {
            a.on_retransmit_timeout(t(1000 * u64::from(i + 1)));
            let _ = a.poll(t(1000 * u64::from(i + 1)));
        }
        assert_eq!(a.state, TcpState::Closed);
        assert!(a.events.iter().any(|e| e.event == SocketEvent::TimedOut));
    }

    #[test]
    fn data_retransmits_until_acked() {
        let (mut a, mut b) = established();
        a.send(b"lost once");
        let (segs, _) = a.poll(t(2));
        assert_eq!(segs.len(), 1);
        // Segment lost; timer fires.
        a.on_retransmit_timeout(t(500));
        let (segs, _) = a.poll(t(500));
        assert_eq!(segs.len(), 1, "retransmission of the lost segment");
        let (h, p) = &segs[0];
        b.on_segment(h, p, t(501));
        assert_eq!(b.recv_buf, b"lost once");
        pump(&mut a, &mut b, t(502));
        assert!(a.send_drained());
    }

    #[test]
    fn blackholed_fin_times_out_and_emits_rst() {
        // The interceptive-middlebox scenario: our FIN handshake is
        // black-holed; retransmissions exhaust; the TCB aborts with RST.
        let (mut a, mut b) = established();
        a.close();
        let _ = a.poll(t(2)); // FIN leaves, never answered
        assert_eq!(a.state, TcpState::FinWait1);
        let mut now = 2;
        for _ in 0..=DATA_RETRIES {
            now += 1000;
            a.on_retransmit_timeout(t(now));
            let _ = a.poll(t(now));
        }
        assert_eq!(a.state, TcpState::Closed);
        // The final poll emitted a RST.
        a.rst_pending = false; // already polled inside loop
        assert!(a.events.iter().any(|e| e.event == SocketEvent::TimedOut));
        // b never heard anything past the handshake.
        assert_eq!(b.state, TcpState::Established);
        assert!(b.take_received().is_empty());
    }

    #[test]
    fn abort_emits_rst_once() {
        let (mut a, _b) = established();
        a.abort();
        let (out, _) = a.poll(t(3));
        assert_eq!(out.len(), 1);
        assert!(out[0].0.flags.contains(TcpFlags::RST));
        let (out2, _) = a.poll(t(3));
        assert!(out2.is_empty());
        assert_eq!(a.state, TcpState::Closed);
    }

    #[test]
    fn poll_is_idempotent_when_quiescent() {
        let (mut a, mut b) = established();
        let (out_a, _) = a.poll(t(9));
        let (out_b, _) = b.poll(t(9));
        assert!(out_a.is_empty());
        assert!(out_b.is_empty());
    }

    #[test]
    fn simultaneous_close_passes_through_closing() {
        let (mut a, mut b) = established();
        b.auto_close_on_fin = false;
        a.close();
        b.close();
        // Exchange FINs "simultaneously": poll both before delivering.
        let (fa, _) = a.poll(t(2));
        let (fb, _) = b.poll(t(2));
        for (h, p) in fb {
            a.on_segment(&h, &p, t(2));
        }
        for (h, p) in fa {
            b.on_segment(&h, &p, t(2));
        }
        pump(&mut a, &mut b, t(3));
        assert_eq!(a.state, TcpState::TimeWait);
        assert_eq!(b.state, TcpState::TimeWait);
    }

    #[test]
    fn mss_is_negotiated_downward() {
        let (mut a, _) = pair();
        let (syn_out, _) = a.poll(t(0));
        let (mut syn, _) = syn_out[0].clone();
        syn.mss = Some(500);
        let b = Tcb::accept((B_IP, 80), (A_IP, 4000), 9000, &syn, t(0));
        assert_eq!(b.mss, 500);
    }

    /// Poll once, expecting silence: no segment and no timer request.
    fn assert_silent(tcb: &mut Tcb, after: &str) {
        let (out, ask) = tcb.poll(t(50));
        assert!(out.is_empty(), "closed TCB emitted {out:?} after {after}");
        assert_eq!(ask, TimerAsk::None, "closed TCB asked for a timer after {after}");
        assert_eq!(tcb.state, TcpState::Closed, "closed TCB left Closed after {after}");
    }

    /// Drive every input a host can deliver at a closed, fully polled TCB
    /// and check that none makes it emit again. `TcpHost` relies on this to
    /// drop such sockets from its wake walk.
    fn assert_closed_stays_silent(mut tcb: Tcb) {
        assert_silent(&mut tcb, "the last poll");
        let (rcv, snd) = (tcb.rcv_nxt(), tcb.snd_nxt());
        tcb.send(b"late bytes");
        assert_silent(&mut tcb, "send");
        tcb.close();
        assert_silent(&mut tcb, "close");
        tcb.abort();
        assert_silent(&mut tcb, "abort");
        tcb.on_retransmit_timeout(t(60));
        assert_silent(&mut tcb, "on_retransmit_timeout");
        tcb.on_time_wait_timeout(t(70));
        assert_silent(&mut tcb, "on_time_wait_timeout");
        let seg = |flags: TcpFlags| {
            let mut h = TcpHeader::new(tcb.remote.1, tcb.local.1, flags);
            h.seq = rcv;
            h.ack = snd;
            h
        };
        let inputs: [(&str, TcpHeader, &[u8]); 4] = [
            ("RST", seg(TcpFlags::RST), b""),
            ("SYN", seg(TcpFlags::SYN), b""),
            ("data", seg(TcpFlags::ACK | TcpFlags::PSH), b"payload"),
            ("FIN", seg(TcpFlags::ACK | TcpFlags::FIN), b""),
        ];
        for (name, h, payload) in inputs {
            tcb.on_segment(&h, payload, t(80));
            assert_silent(&mut tcb, name);
        }
    }

    #[test]
    fn closed_tcb_never_emits_again() {
        // Aborted: the one RST goes out, then silence.
        let (mut a, _b) = established();
        a.abort();
        let (out, _) = a.poll(t(3));
        assert_eq!(out.len(), 1);
        assert_closed_stays_silent(a);

        // Reset by the peer.
        let (mut a, _b) = established();
        let mut h = TcpHeader::new(80, 4000, TcpFlags::RST);
        h.seq = a.rcv_nxt();
        a.on_segment(&h, b"", t(5));
        assert_closed_stays_silent(a);

        // Orderly close: b completes LastAck, a expires TIME-WAIT.
        let (mut a, mut b) = established();
        a.close();
        pump(&mut a, &mut b, t(2));
        a.on_time_wait_timeout(t(20_000));
        assert_closed_stays_silent(a);
        assert_closed_stays_silent(b);

        // Gave up retransmitting: the RST goes out, then silence.
        let (mut a, _) = pair();
        let _ = a.poll(t(0));
        for i in 0..=SYN_RETRIES {
            a.on_retransmit_timeout(t(1000 * u64::from(i + 1)));
            let _ = a.poll(t(1000 * u64::from(i + 1)));
        }
        assert_closed_stays_silent(a);
    }

    #[test]
    fn events_carry_timestamps() {
        let (a, _) = established();
        let est = a.events.iter().find(|e| e.event == SocketEvent::Established).unwrap();
        assert!(est.at >= t(0));
    }
}
