//! A TLS-shaped port-443 service.
//!
//! The paper's HTTPS finding (§4.2) is *negative*: the middleboxes watch
//! only plaintext port-80 traffic, and the handful of "HTTPS filtering"
//! instances observed were really DNS poisoning upstream of the TLS
//! connection. Reproducing that requires 443 to carry traffic the
//! middleboxes could have (but do not) interfere with. This module
//! provides the minimum honest stand-in: a server that answers a
//! ClientHello-shaped record with a ServerHello-shaped record followed by
//! opaque ciphertext-looking bytes. No actual cryptography — nothing in
//! the paper depends on it — just the traffic shape.

use lucent_tcp::{SocketApp, SocketEvent, SocketIo};

/// TLS record type: handshake.
pub const RECORD_HANDSHAKE: u8 = 0x16;
/// TLS record type: application data.
pub const RECORD_APPDATA: u8 = 0x17;

/// Build a ClientHello-shaped probe for `sni`.
///
/// Layout: record header (type 0x16, version 3.3, length), then the SNI
/// bytes in the clear — which is exactly what a censor *could* match on,
/// and what the deployed middleboxes demonstrably do not.
pub fn client_hello(sni: &str) -> Vec<u8> {
    let body = format!("CLIENTHELLO sni={sni}");
    let mut out = vec![RECORD_HANDSHAKE, 0x03, 0x03];
    out.extend_from_slice(&(body.len() as u16).to_be_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// Does a server response parse as our ServerHello shape?
pub fn is_server_hello(bytes: &[u8]) -> bool {
    bytes.len() > 5 && bytes[0] == RECORD_HANDSHAKE && bytes[1] == 0x03 && bytes[2] == 0x03
}

/// The port-443 application: one per accepted connection.
#[derive(Clone)]
pub struct TlsLikeApp {
    responded: bool,
}

impl TlsLikeApp {
    /// New connection handler.
    pub fn new() -> Self {
        TlsLikeApp { responded: false }
    }

    /// Listener factory for [`lucent_tcp::TcpHost::listen`].
    pub fn factory() -> impl Fn() -> Box<dyn SocketApp> {
        || Box::new(TlsLikeApp::new()) as Box<dyn SocketApp>
    }
}

impl Default for TlsLikeApp {
    fn default() -> Self {
        Self::new()
    }
}

impl SocketApp for TlsLikeApp {
    fn on_event(&mut self, io: &mut SocketIo<'_>, event: &SocketEvent) {
        match event {
            SocketEvent::Data { .. } if !self.responded => {
                let got = io.take_received();
                if got.first() == Some(&RECORD_HANDSHAKE) {
                    self.responded = true;
                    let mut hello = vec![RECORD_HANDSHAKE, 0x03, 0x03];
                    let body = b"SERVERHELLO certificate ciphersuite";
                    hello.extend_from_slice(&(body.len() as u16).to_be_bytes());
                    hello.extend_from_slice(body);
                    // A burst of opaque application data.
                    hello.push(RECORD_APPDATA);
                    hello.extend_from_slice(&(64u16).to_be_bytes());
                    hello.extend((0u8..64).map(|i| i.wrapping_mul(37).wrapping_add(11)));
                    io.send(&hello);
                    io.close();
                } else {
                    io.abort(); // not TLS-shaped: hang up
                }
            }
            SocketEvent::PeerFin => io.close(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_netsim::{IfaceId, Network, SimDuration};
    use lucent_tcp::{TcpHost, TcpState};
    use std::net::Ipv4Addr;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 2);

    fn rig() -> (Network, lucent_netsim::NodeId, lucent_netsim::NodeId) {
        let mut net = Network::new();
        let client = net.add_node(Box::new(TcpHost::new(CLIENT, "c", 1)));
        let mut server = TcpHost::new(SERVER, "s", 2);
        server.listen(443, TlsLikeApp::factory());
        let server = net.add_node(Box::new(server));
        net.connect(client, IfaceId::PRIMARY, server, IfaceId::PRIMARY, SimDuration::from_millis(2));
        (net, client, server)
    }

    #[test]
    fn handshake_shape_roundtrips() {
        let (mut net, client, _) = rig();
        let sock = net.node_mut::<TcpHost>(client).unwrap().connect(SERVER, 443);
        net.wake(client);
        net.run_for(SimDuration::from_millis(50));
        assert_eq!(net.node_ref::<TcpHost>(client).unwrap().state(sock), TcpState::Established);
        net.node_mut::<TcpHost>(client).unwrap().send(sock, &client_hello("secret.example"));
        net.wake(client);
        net.run_for(SimDuration::from_millis(200));
        let got = net.node_mut::<TcpHost>(client).unwrap().take_received(sock);
        assert!(is_server_hello(&got), "{got:?}");
        assert!(got.contains(&RECORD_APPDATA));
    }

    #[test]
    fn non_tls_bytes_are_rejected() {
        let (mut net, client, _) = rig();
        let sock = net.node_mut::<TcpHost>(client).unwrap().connect(SERVER, 443);
        net.wake(client);
        net.run_for(SimDuration::from_millis(50));
        net.node_mut::<TcpHost>(client).unwrap().send(sock, b"GET / HTTP/1.1\r\n\r\n");
        net.wake(client);
        net.run_for(SimDuration::from_millis(200));
        let host = net.node_ref::<TcpHost>(client).unwrap();
        assert!(host
            .events(sock)
            .iter()
            .any(|e| e.event == lucent_tcp::SocketEvent::Reset));
    }

    #[test]
    fn client_hello_carries_sni_in_the_clear() {
        let hello = client_hello("blocked.example");
        assert_eq!(hello[0], RECORD_HANDSHAKE);
        let text = String::from_utf8_lossy(&hello[5..]);
        assert!(text.contains("sni=blocked.example"));
    }
}
