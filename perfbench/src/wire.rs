//! An in-process transport that moves every message as bytes through the
//! program's TCP frame codec: `frame::encode` of a DATA frame on send,
//! `frame::read_frame` of those bytes on receive, with a channel between
//! the two in place of a socket. It is the TCP transport's serialization
//! path without the network, so it runs where loopback sockets are not
//! allowed, and a codec change moves its step time.

use gtopk_comm::transport::frame::{self, Frame};
use gtopk_comm::transport::Transport;
use gtopk_comm::{CommError, Message, Result};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Longest a receive waits with no caller bound (the TCP transport's
/// default receive deadline): a wedged peer surfaces as a `Timeout`
/// instead of hanging the run.
const RECV_DEADLINE: Duration = Duration::from_secs(30);

pub struct WireTransport {
    rank: usize,
    size: usize,
    /// `to[d]` carries encoded frames to rank `d`; `None` at `d == rank`.
    to: Vec<Option<Sender<Vec<u8>>>>,
    /// `from[s]` yields the encoded frames rank `s` sent here.
    from: Vec<Option<Receiver<Vec<u8>>>>,
}

impl WireTransport {
    /// The full `size × size` mesh, one endpoint per rank in rank order.
    pub fn mesh(size: usize) -> Vec<WireTransport> {
        let mut ends: Vec<WireTransport> = (0..size)
            .map(|rank| WireTransport {
                rank,
                size,
                to: (0..size).map(|_| None).collect(),
                from: (0..size).map(|_| None).collect(),
            })
            .collect();
        for s in 0..size {
            for d in (0..size).filter(|&d| d != s) {
                let (tx, rx) = channel();
                ends[s].to[d] = Some(tx);
                ends[d].from[s] = Some(rx);
            }
        }
        ends
    }

    /// Decodes one received frame, stamping the source as a TCP link does.
    fn decode(src: usize, bytes: &[u8]) -> Message {
        match frame::read_frame(&mut &bytes[..]) {
            Ok(Frame::Data {
                tag,
                arrival_ms,
                payload,
            }) => Message {
                src,
                tag,
                payload,
                arrival_ms,
            },
            other => panic!("frame from rank {src} did not decode to DATA: {other:?}"),
        }
    }
}

impl Transport for WireTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, dest: usize, msg: Message) -> Result<()> {
        let tx = self.to[dest].as_ref().expect("send target is a peer");
        tx.send(frame::encode(&Frame::data(msg)))
            .map_err(|_| CommError::Disconnected { peer: dest })
    }

    fn recv(&mut self, src: usize, cap: Option<Duration>) -> Result<Message> {
        let cap = cap.map_or(RECV_DEADLINE, |c| c.min(RECV_DEADLINE));
        let rx = self.from[src].as_ref().expect("recv source is a peer");
        match rx.recv_timeout(cap) {
            Ok(bytes) => Ok(Self::decode(src, &bytes)),
            Err(RecvTimeoutError::Disconnected) => Err(CommError::Disconnected { peer: src }),
            Err(RecvTimeoutError::Timeout) => Err(CommError::Timeout {
                peer: src,
                attempts: 1,
                elapsed_ms: cap.as_secs_f64() * 1e3,
            }),
        }
    }

    fn try_recv(&mut self, src: usize) -> Option<Message> {
        let rx = self.from[src].as_ref().expect("recv source is a peer");
        rx.try_recv().ok().map(|bytes| Self::decode(src, &bytes))
    }

    fn wall_clock(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_comm::Payload;

    #[test]
    fn messages_cross_the_codec_in_order() {
        let mut ends = WireTransport::mesh(2);
        let (a, b) = ends.split_at_mut(1);
        for (tag, v) in [(3, 1.5f32), (4, -2.0)] {
            let msg = Message {
                src: 0,
                tag,
                payload: Payload::dense(vec![v; 5]),
                arrival_ms: 0.25,
            };
            a[0].send(1, msg).unwrap();
        }
        let first = b[0].recv(0, None).unwrap();
        assert_eq!((first.src, first.tag, first.arrival_ms), (0, 3, 0.25));
        assert_eq!(first.payload, Payload::dense(vec![1.5; 5]));
        assert_eq!(b[0].try_recv(0).unwrap().tag, 4);
        assert!(b[0].try_recv(0).is_none());
    }

    #[test]
    fn a_dropped_peer_reads_as_disconnected() {
        let mut ends = WireTransport::mesh(2);
        let mut b = ends.pop().unwrap();
        drop(ends);
        assert_eq!(
            b.recv(0, Some(Duration::from_millis(1))).unwrap_err(),
            CommError::Disconnected { peer: 0 }
        );
    }
}
