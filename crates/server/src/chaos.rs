//! Fault injection for the serving stack: a deterministic in-process
//! [`FaultyTransport`] and a TCP [`ChaosProxy`] that damages real
//! byte streams.
//!
//! The proxy sits between a frontend's `RemoteTransport` and a worker
//! and injects the failure modes machines actually produce: refused
//! connections, black holes, slow links, connections killed mid-frame,
//! truncated responses, and flipped bits. Faults are scripted — a FIFO
//! of per-connection [`Fault`]s — so every chaos schedule is
//! reproducible.
//!
//! The contract under test: a client behind the fault-tolerance layer
//! either gets an answer **bit-identical** to in-process execution, a
//! **typed** error, or (opt-in) an explicit `degraded` marker. Flipped
//! bits specifically must die at the frame CRC
//! ([`crate::wire::WireError::Corrupt`]), because a flipped JSON digit
//! would otherwise parse fine and merge a wrong score silently.

use crate::counters::ServerCounters;
use crate::transport::ShardTransport;
use crate::wire::{ReplicaHealthInfo, Request, Response};
use crate::{Result, ServerError};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One connection's injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward faithfully.
    None,
    /// Close the client connection immediately on accept.
    Refuse,
    /// Accept and read, forward nothing, never answer: the client's
    /// socket timeout or deadline is the only way out.
    BlackHole,
    /// Hold the client's bytes this long before forwarding them.
    Delay(Duration),
    /// Sever both directions after forwarding this many request bytes —
    /// the worker sees a truncated frame, the client a dead connection.
    KillAfterRequestBytes(usize),
    /// Forward only the first N response bytes, then sever — the client
    /// sees a stream that dies mid-frame.
    TruncateResponseAfter(usize),
    /// Flip one bit in the response byte at this stream offset (the
    /// frame CRC must refuse the payload).
    CorruptResponseByte(usize),
}

/// A TCP proxy that forwards client connections to `upstream`, applying
/// one scripted [`Fault`] per connection. Dropping it severs every
/// proxied connection and stops the accept loop.
pub struct ChaosProxy {
    addr: SocketAddr,
    /// Scripted faults, one per accepted connection, FIFO.
    plan: Arc<Mutex<VecDeque<Fault>>>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<(u64, TcpStream)>>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    faults_injected: Arc<AtomicU64>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port proxying to `upstream`. Faithful
    /// pass-through until faults are scripted.
    pub fn new(upstream: SocketAddr) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        let plan = Arc::new(Mutex::new(VecDeque::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<(u64, TcpStream)>>> = Arc::new(Mutex::new(Vec::new()));
        let faults_injected = Arc::new(AtomicU64::new(0));

        let accept = {
            let plan = Arc::clone(&plan);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let faults_injected = Arc::clone(&faults_injected);
            std::thread::spawn(move || {
                let mut next_id = 0u64;
                for client in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let client = match client {
                        Ok(c) => c,
                        Err(_) => continue,
                    };
                    let fault = plan.lock().pop_front().unwrap_or(Fault::None);
                    if fault != Fault::None {
                        faults_injected.fetch_add(1, Ordering::Relaxed);
                    }
                    if fault == Fault::Refuse {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    }
                    let id = next_id;
                    next_id += 1;
                    if let Ok(dup) = client.try_clone() {
                        conns.lock().push((id, dup));
                    }
                    let conns_done = Arc::clone(&conns);
                    std::thread::spawn(move || {
                        proxy_connection(client, upstream, fault);
                        conns_done.lock().retain(|(cid, _)| *cid != id);
                    });
                }
            })
        };

        Ok(ChaosProxy {
            addr,
            plan,
            stop,
            conns,
            accept_thread: Some(accept),
            faults_injected,
        })
    }

    /// The proxy's listening address (point `RemoteTransport` here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Scripts `fault` for the next accepted connection (FIFO; a
    /// connection with no scripted fault is forwarded faithfully).
    pub fn enqueue(&self, fault: Fault) {
        self.plan.lock().push_back(fault);
    }

    /// Connections that drew a non-`None` fault.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // unblock accept
        for (_, c) in self.conns.lock().drain(..) {
            let _ = c.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Pumps one proxied connection, applying `fault`.
fn proxy_connection(client: TcpStream, upstream: SocketAddr, fault: Fault) {
    if fault == Fault::BlackHole {
        // Swallow the request, answer nothing. The read keeps the
        // socket open until the client gives up and closes.
        let mut client = client;
        let mut sink = [0u8; 4096];
        while matches!(client.read(&mut sink), Ok(n) if n > 0) {}
        return;
    }
    let server = match TcpStream::connect(upstream) {
        Ok(s) => s,
        Err(_) => {
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    client.set_nodelay(true).ok();
    server.set_nodelay(true).ok();

    let (c_read, c_write) = match (client.try_clone(), client) {
        (Ok(r), w) => (r, w),
        (Err(_), w) => {
            let _ = w.shutdown(Shutdown::Both);
            return;
        }
    };
    let (s_read, s_write) = match (server.try_clone(), server) {
        (Ok(r), w) => (r, w),
        (Err(_), w) => {
            let _ = w.shutdown(Shutdown::Both);
            return;
        }
    };

    // Request path: client → upstream.
    let req_fault = fault;
    let up = std::thread::spawn(move || {
        pump(c_read, s_write, |chunk, offset| match req_fault {
            Fault::Delay(d) => {
                if offset == 0 {
                    std::thread::sleep(d);
                }
                PumpStep::Forward(chunk.len())
            }
            Fault::KillAfterRequestBytes(n) => {
                if offset >= n {
                    PumpStep::Sever
                } else {
                    PumpStep::Forward(chunk.len().min(n - offset))
                }
            }
            _ => PumpStep::Forward(chunk.len()),
        });
    });

    // Response path: upstream → client.
    pump(s_read, c_write, |chunk, offset| match fault {
        Fault::TruncateResponseAfter(n) => {
            if offset >= n {
                PumpStep::Sever
            } else {
                PumpStep::Forward(chunk.len().min(n - offset))
            }
        }
        Fault::CorruptResponseByte(target) => {
            if (offset..offset + chunk.len()).contains(&target) {
                chunk[target - offset] ^= 0x01;
            }
            PumpStep::Forward(chunk.len())
        }
        _ => PumpStep::Forward(chunk.len()),
    });
    let _ = up.join();
}

enum PumpStep {
    /// Forward this many bytes of the chunk (then sever if short).
    Forward(usize),
    /// Sever both directions now.
    Sever,
}

/// Copies `from` → `to` through `act`, which may damage, truncate, or
/// sever the stream. Severing shuts down both sockets so the peer pump
/// exits too.
fn pump(mut from: TcpStream, mut to: TcpStream, mut act: impl FnMut(&mut [u8], usize) -> PumpStep) {
    let mut offset = 0usize;
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let chunk = &mut buf[..n];
        match act(chunk, offset) {
            PumpStep::Forward(m) => {
                if to.write_all(&chunk[..m]).is_err() {
                    break;
                }
                offset += n;
                if m < n {
                    break; // partial forward = sever after the cut
                }
            }
            PumpStep::Sever => break,
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Deterministic in-process fault injection over any inner transport:
/// fail the next N calls, or play dead until revived. Drives the
/// replica-failover unit tests without sockets.
pub struct FaultyTransport {
    inner: Arc<dyn ShardTransport>,
    fail_next: AtomicU64,
    dead: AtomicBool,
    calls: AtomicU64,
}

impl FaultyTransport {
    /// Wraps `inner`; faithful until told otherwise.
    pub fn new(inner: Arc<dyn ShardTransport>) -> Arc<FaultyTransport> {
        Arc::new(FaultyTransport {
            inner,
            fail_next: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            calls: AtomicU64::new(0),
        })
    }

    /// Injects transport failures into the next `n` calls.
    pub fn fail_next(&self, n: u64) {
        self.fail_next.store(n, Ordering::SeqCst);
    }

    /// Plays dead (every call fails) until `set_dead(false)`.
    pub fn set_dead(&self, dead: bool) {
        self.dead.store(dead, Ordering::SeqCst);
    }

    /// Calls that reached this transport (injected failures included).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn should_fail(&self) -> bool {
        if self.dead.load(Ordering::SeqCst) {
            return true;
        }
        self.fail_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }
}

impl ShardTransport for FaultyTransport {
    fn shard(&self) -> u32 {
        self.inner.shard()
    }

    fn call(&self, req: &Request, deadline: Option<std::time::Instant>) -> Result<Response> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if self.should_fail() {
            return Err(ServerError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected fault",
            )));
        }
        self.inner.call(req, deadline)
    }

    fn describe(&self) -> String {
        format!("faulty({})", self.inner.describe())
    }

    fn pin_fingerprint(&self, fp: u64) {
        self.inner.pin_fingerprint(fp);
    }

    fn replica_health(&self) -> Option<Vec<ReplicaHealthInfo>> {
        self.inner.replica_health()
    }

    fn attach_counters(&self, counters: &Arc<ServerCounters>) {
        self.inner.attach_counters(counters);
    }
}
