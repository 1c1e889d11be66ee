//! The [`SocketApp`] trait: in-node applications attached to sockets
//! (origin web servers, notification pages, test echoes). Driver-side
//! code (the measurement harness) does not use apps — it polls sockets
//! through [`crate::TcpHost`] accessors instead.

use std::net::Ipv4Addr;

use lucent_netsim::SimTime;

use crate::socket::{SocketEvent, TcpState};
use crate::tcb::Tcb;

/// Narrow, borrow-safe view of one socket handed to application
/// callbacks.
pub struct SocketIo<'a> {
    pub(crate) tcb: &'a mut Tcb,
    pub(crate) now: SimTime,
}

impl SocketIo<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Connection state.
    pub fn state(&self) -> TcpState {
        self.tcb.state
    }

    /// Peer address and port.
    pub fn peer(&self) -> (Ipv4Addr, u16) {
        self.tcb.remote
    }

    /// Local address and port.
    pub fn local(&self) -> (Ipv4Addr, u16) {
        self.tcb.local
    }

    /// Bytes received so far and not yet taken.
    pub fn received(&self) -> &[u8] {
        &self.tcb.recv_buf
    }

    /// Drain the receive buffer.
    pub fn take_received(&mut self) -> Vec<u8> {
        self.tcb.take_received()
    }

    /// Queue bytes for transmission (flushed when the callback returns).
    pub fn send(&mut self, bytes: &[u8]) {
        self.tcb.send(bytes);
    }

    /// Orderly close after queued data drains.
    pub fn close(&mut self) {
        self.tcb.close();
    }

    /// Abort with RST.
    pub fn abort(&mut self) {
        self.tcb.abort();
    }
}

/// An application living inside a [`crate::TcpHost`], driven by socket
/// events. One instance exists per accepted connection (listeners clone a
/// factory). Apps are `Clone` so a host — and with it a whole world —
/// can be copied (see [`CloneSocketApp`]).
pub trait SocketApp: CloneSocketApp {
    /// Called once per socket event, in order.
    fn on_event(&mut self, io: &mut SocketIo<'_>, event: &SocketEvent);
}

/// Copy support for [`SocketApp`]: implemented for every
/// `SocketApp + Clone`.
pub trait CloneSocketApp {
    /// A copy of this app in its own box.
    fn clone_app(&self) -> Box<dyn SocketApp>;
}

impl<T: SocketApp + Clone + 'static> CloneSocketApp for T {
    fn clone_app(&self) -> Box<dyn SocketApp> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn SocketApp> {
    fn clone(&self) -> Self {
        (**self).clone_app()
    }
}

/// A trivial app that answers every received chunk with a fixed response
/// and closes. Used by tests and by the port-80 "live host" stand-ins the
/// outside-vantage scans probe.
#[derive(Clone)]
pub struct FixedResponder {
    /// Bytes to send when the first data arrives.
    pub response: Vec<u8>,
    sent: bool,
}

impl FixedResponder {
    /// Respond with `response` to the first data received.
    pub fn new(response: Vec<u8>) -> Self {
        FixedResponder { response, sent: false }
    }
}

impl SocketApp for FixedResponder {
    fn on_event(&mut self, io: &mut SocketIo<'_>, event: &SocketEvent) {
        if matches!(event, SocketEvent::Data { .. }) && !self.sent {
            self.sent = true;
            let response = std::mem::take(&mut self.response);
            io.send(&response);
            io.close();
        }
    }
}
