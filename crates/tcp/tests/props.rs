//! Property tests for the TCP state machine, driven by the
//! `lucent-check` harness: safety under arbitrary segments, and delivery
//! correctness under duplication and bounded loss with retransmission.
//!
//! The handshake rig (`established_pair`) and the arbitrary-segment
//! safety property live in `lucent_check::oracles`, shared with the
//! oracle catalogue; the delivery properties below draw their inputs from
//! a [`Source`] so a failure shrinks to a minimal chunk list or loss
//! pattern and reports a replayable tape.

use lucent_check::oracles::established_pair;
use lucent_check::{check, oracles, Config, Source};
use lucent_netsim::SimTime;
use lucent_tcp::tcb::TimerAsk;

fn t(ms: u64) -> SimTime {
    SimTime(ms * 1_000)
}

/// Arbitrary segments never panic the state machine, and the receive
/// buffer never shrinks.
#[test]
fn arbitrary_segments_are_safe() {
    check(&Config::cases(128), oracles::tcb_arbitrary_segments_safe);
}

/// Lossless in-order exchange delivers exactly the sent bytes.
#[test]
fn lossless_delivery_is_exact() {
    check(&Config::cases(128), |s: &mut Source| {
        let n = s.len_in(1, 11);
        let chunks: Vec<Vec<u8>> = (0..n).map(|_| s.bytes(1, 511)).collect();
        let (mut a, mut b) = established_pair();
        let mut expected = Vec::new();
        for chunk in &chunks {
            expected.extend_from_slice(chunk);
            a.send(chunk);
        }
        for step in 0..128u64 {
            let (fa, _) = a.poll(t(100 + step));
            let (fb, _) = b.poll(t(100 + step));
            if fa.is_empty() && fb.is_empty() {
                break;
            }
            for (h, p) in fa {
                b.on_segment(&h, &p, t(100 + step));
            }
            for (h, p) in fb {
                a.on_segment(&h, &p, t(100 + step));
            }
        }
        assert_eq!(b.take_received(), expected);
        assert!(a.send_drained());
    });
}

/// Under random segment loss (bounded below the retry budget, as a
/// correctness property must be — unbounded loss legitimately aborts
/// the connection), retransmission timeouts still deliver every byte
/// in order.
#[test]
fn lossy_delivery_recovers_via_retransmission() {
    check(&Config::cases(128), |s: &mut Source| {
        let payload = s.bytes(1, 1_999);
        let loss_seed = s.any_u64();
        let (mut a, mut b) = established_pair();
        a.send(&payload);
        let mut x = loss_seed | 1;
        let mut dropped: std::collections::BTreeMap<u32, u8> = std::collections::BTreeMap::new();
        let mut roll = move |seq: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let count = dropped.entry(seq).or_insert(0);
            if x % 100 < 30 && *count < 2 {
                *count += 1;
                true
            } else {
                false
            }
        };
        let mut now = 100u64;
        for _round in 0..64 {
            now += 500;
            let (fa, ask) = a.poll(t(now));
            for (h, p) in fa {
                if !roll(h.seq) {
                    b.on_segment(&h, &p, t(now));
                }
            }
            let (fb, _) = b.poll(t(now));
            for (h, p) in fb {
                a.on_segment(&h, &p, t(now)); // ACK path is lossless
            }
            if a.send_drained() {
                break;
            }
            if let TimerAsk::Retransmit { .. } = ask {
                a.on_retransmit_timeout(t(now + 400));
            } else if !a.send_drained() {
                a.on_retransmit_timeout(t(now + 400));
            }
        }
        assert_eq!(b.take_received(), payload);
    });
}

/// Duplicated (replayed) data segments never corrupt the stream.
#[test]
fn duplicate_segments_do_not_corrupt() {
    check(&Config::cases(128), |s: &mut Source| {
        let payload = s.bytes(1, 599);
        let dup_every = s.len_in(1, 3);
        let (mut a, mut b) = established_pair();
        a.send(&payload);
        let mut now = 100u64;
        for _ in 0..64 {
            now += 1;
            let (fa, _) = a.poll(t(now));
            if fa.is_empty() {
                let (fb, _) = b.poll(t(now));
                if fb.is_empty() {
                    break;
                }
                for (h, p) in fb {
                    a.on_segment(&h, &p, t(now));
                }
                continue;
            }
            for (i, (h, p)) in fa.iter().enumerate() {
                b.on_segment(h, p, t(now));
                if i % dup_every == 0 {
                    b.on_segment(h, p, t(now)); // replay
                }
            }
            let (fb, _) = b.poll(t(now));
            for (h, p) in fb {
                a.on_segment(&h, &p, t(now));
            }
        }
        assert_eq!(b.take_received(), payload);
    });
}
