//! The origin web server: an RFC 2616-compliant virtual-hosting HTTP
//! server implemented as a [`SocketApp`].
//!
//! Behavioural commitments (each one load-bearing for the paper):
//!
//! * Header names are case-insensitive and values tolerate surrounding
//!   whitespace — so `HOst:`/`Host:  x` fudged requests are served.
//! * `www.`-prefixed hosts fall back to the bare domain.
//! * `\r\n\r\n` ends a request; trailing bytes are parsed as the next
//!   pipelined message, and malformed leftovers draw `400 Bad Request` —
//!   the exact two-response behaviour the covert-IM evasion relies on.
//! * A replica serves only sites hosted at its own address; a crafted
//!   request for `blocked.com` sent to an unrelated server is answered
//!   `404` (the controlled-remote-host corroboration experiments).

use lucent_dns::RegionId;
use lucent_packet::http::{find_head_end, HttpRequest};
use lucent_tcp::{SocketApp, SocketEvent, SocketIo};

use crate::content;
use crate::site::SharedDirectory;

/// Configuration shared by every connection app a server host spawns.
#[derive(Clone)]
pub struct ServerConfig {
    /// The region this replica serves from (drives CDN/dynamic content).
    pub region: RegionId,
    /// The site directory.
    pub directory: SharedDirectory,
}

/// Per-connection server application.
#[derive(Clone)]
pub struct WebServerApp {
    cfg: ServerConfig,
    buf: Vec<u8>,
    responded: bool,
}

impl WebServerApp {
    /// New connection handler.
    pub fn new(cfg: ServerConfig) -> Self {
        WebServerApp { cfg, buf: Vec::new(), responded: false }
    }

    /// Convenience: a listener factory for [`lucent_tcp::TcpHost::listen`].
    pub fn factory(cfg: ServerConfig) -> impl Fn() -> Box<dyn SocketApp> {
        move || Box::new(WebServerApp::new(cfg.clone())) as Box<dyn SocketApp>
    }

    fn respond(&self, io: &mut SocketIo<'_>, req: &HttpRequest) -> Vec<u8> {
        if req.method != "GET" {
            return content::bad_request().emit();
        }
        let Some(host) = req.host() else {
            return content::bad_request().emit();
        };
        let dir = &self.cfg.directory;
        let site = dir
            .by_domain(host)
            .or_else(|| host.strip_prefix("www.").and_then(|bare| dir.by_domain(bare)));
        let local_ip = io.local().0;
        match site {
            Some(site) if site.replicas.contains(&local_ip) => {
                // Dynamic content varies with (virtual) fetch time: a new
                // "edition" every five virtual seconds — and parking
                // engines geo-target by visitor, so a client-derived hint
                // rides along.
                let variant = (io.now().micros() / 5_000_000) as u32;
                let viewer = (u32::from(io.peer().0) % 9973) as u16;
                content::render(site, self.cfg.region, variant, viewer).emit()
            }
            _ => content::not_found(host).emit(),
        }
    }

    fn drain_requests(&mut self, io: &mut SocketIo<'_>) {
        loop {
            let Some(end) = find_head_end(&self.buf) else {
                return; // incomplete head: wait for more bytes
            };
            let out = match HttpRequest::parse(&self.buf[..end]) {
                Ok((req, used)) => {
                    debug_assert_eq!(used, end);
                    self.respond(io, &req)
                }
                Err(_) => content::bad_request().emit(),
            };
            io.send(&out);
            self.responded = true;
            self.buf.drain(..end);
        }
    }
}

impl SocketApp for WebServerApp {
    fn on_event(&mut self, io: &mut SocketIo<'_>, event: &SocketEvent) {
        match event {
            SocketEvent::Data { .. } => {
                let chunk = io.take_received();
                self.buf.extend_from_slice(&chunk);
                self.drain_requests(io);
                if self.responded && self.buf.is_empty() {
                    // Responses queued; close after they drain (HTTP/1.0
                    // style, matching the `Connection: close` we emit).
                    io.close();
                }
            }
            SocketEvent::PeerFin => {
                io.close();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::{Category, Site, SiteDirectory, SiteId, SiteKind};
    use lucent_netsim::routing::Cidr;
    use lucent_netsim::{IfaceId, Network, NodeId, RouterNode, SimDuration};
    use lucent_packet::http::RequestBuilder;
    use lucent_packet::HttpResponse;
    use lucent_tcp::{TcpHost, TcpState};
    use std::net::Ipv4Addr;
    use std::rc::Rc;

    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 2);

    fn directory() -> SharedDirectory {
        Rc::new(SiteDirectory::new([
            Site {
                id: SiteId(0),
                domain: "hosted.example".into(),
                category: Category::Music,
                kind: SiteKind::Normal,
                dynamic: false,
                replicas: vec![SERVER_IP],
                regional_dns: false,
                seed: 99,
            },
            Site {
                id: SiteId(1),
                domain: "elsewhere.example".into(),
                category: Category::Music,
                kind: SiteKind::Normal,
                dynamic: false,
                replicas: vec![Ipv4Addr::new(192, 0, 2, 77)],
                regional_dns: false,
                seed: 100,
            },
        ]))
    }

    fn build() -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let client = net.add_node(Box::new(TcpHost::new(CLIENT_IP, "client", 1)));
        let mut server_host = TcpHost::new(SERVER_IP, "server", 2);
        let cfg = ServerConfig { region: 0, directory: directory() };
        server_host.listen(80, WebServerApp::factory(cfg));
        let server = net.add_node(Box::new(server_host));
        let mut r = RouterNode::new(Ipv4Addr::new(10, 0, 0, 1), "r");
        r.table.add(Cidr::new(CLIENT_IP, 24), IfaceId(0));
        r.table.add(Cidr::new(SERVER_IP, 24), IfaceId(1));
        let r = net.add_node(Box::new(r));
        let ms = SimDuration::from_millis(1);
        net.connect(client, IfaceId::PRIMARY, r, IfaceId(0), ms);
        net.connect(r, IfaceId(1), server, IfaceId::PRIMARY, ms);
        (net, client, server)
    }

    /// Drive a raw request through a fresh connection; return all bytes
    /// the server sent back.
    fn fetch(request: &[u8]) -> Vec<u8> {
        let (mut net, client, _) = build();
        let sock = net.node_mut::<TcpHost>(client).unwrap().connect(SERVER_IP, 80);
        net.wake(client);
        net.run_for(SimDuration::from_millis(50));
        assert_eq!(net.node_ref::<TcpHost>(client).unwrap().state(sock), TcpState::Established);
        net.node_mut::<TcpHost>(client).unwrap().send(sock, request);
        net.wake(client);
        net.run_for(SimDuration::from_millis(500));
        net.node_mut::<TcpHost>(client).unwrap().take_received(sock)
    }

    #[test]
    fn serves_hosted_site() {
        let req = RequestBuilder::browser("hosted.example", "/").build();
        let resp = HttpResponse::parse(&fetch(&req)).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.title().unwrap().contains("hosted.example"));
    }

    #[test]
    fn case_fudged_host_keyword_is_served() {
        for fudge in ["HOst", "HoST", "HOST"] {
            let req = RequestBuilder::get("/")
                .raw_line(&format!("{fudge}: hosted.example"))
                .build();
            let resp = HttpResponse::parse(&fetch(&req)).unwrap();
            assert_eq!(resp.status, 200, "fudge {fudge}");
        }
    }

    #[test]
    fn whitespace_fudged_host_value_is_served() {
        for line in ["Host:  hosted.example", "Host:\thosted.example", "Host: hosted.example  "] {
            let req = RequestBuilder::get("/").raw_line(line).build();
            let resp = HttpResponse::parse(&fetch(&req)).unwrap();
            assert_eq!(resp.status, 200, "line {line:?}");
        }
    }

    #[test]
    fn www_prefix_falls_back_to_bare_domain() {
        let req = RequestBuilder::browser("www.hosted.example", "/").build();
        let resp = HttpResponse::parse(&fetch(&req)).unwrap();
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn unhosted_domain_gets_404() {
        // The controlled-remote-host experiment: a GET for a site this
        // server does not host is answered, but not with its content.
        let req = RequestBuilder::browser("elsewhere.example", "/").build();
        let resp = HttpResponse::parse(&fetch(&req)).unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn pipelined_garbage_draws_content_then_400() {
        // The covert-IM evasion shape: first a complete GET for the real
        // site, then a trailing "Host: allowed.com" fragment.
        let mut req = RequestBuilder::browser("hosted.example", "/").build();
        req.extend_from_slice(b"Host: allowed.example\r\n\r\n");
        let bytes = fetch(&req);
        let first = HttpResponse::parse(&bytes).unwrap();
        assert_eq!(first.status, 200);
        // Find the second response in the byte stream.
        let tail_at = find_subslice(&bytes, b"HTTP/1.1 400").expect("second response present");
        let second = HttpResponse::parse(&bytes[tail_at..]).unwrap();
        assert_eq!(second.status, 400);
    }

    #[test]
    fn segmented_request_is_reassembled() {
        let (mut net, client, _) = build();
        let sock = net.node_mut::<TcpHost>(client).unwrap().connect(SERVER_IP, 80);
        net.wake(client);
        net.run_for(SimDuration::from_millis(50));
        let req = RequestBuilder::browser("hosted.example", "/").build();
        let (a, b) = req.split_at(10);
        net.node_mut::<TcpHost>(client).unwrap().send(sock, a);
        net.wake(client);
        net.run_for(SimDuration::from_millis(30));
        net.node_mut::<TcpHost>(client).unwrap().send(sock, b);
        net.wake(client);
        net.run_for(SimDuration::from_millis(500));
        let resp = HttpResponse::parse(&net.node_mut::<TcpHost>(client).unwrap().take_received(sock)).unwrap();
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn non_get_method_is_rejected() {
        let req = RequestBuilder::get("/").method("POST").header("Host", "hosted.example").build();
        let resp = HttpResponse::parse(&fetch(&req)).unwrap();
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn missing_host_is_rejected() {
        let req = RequestBuilder::get("/").header("Accept", "*/*").build();
        let resp = HttpResponse::parse(&fetch(&req)).unwrap();
        assert_eq!(resp.status, 400);
    }

    fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        haystack.windows(needle.len()).position(|w| w == needle)
    }
}
