//! The write-readiness path: a client that stops reading its acks must
//! push the server into backpressure (its unsent acks pass the bound and
//! it stops reading that connection), and once the client reads again
//! the server must wait for the socket to take bytes, resume, and drain
//! clean. A test binary of its own, because it enables the process-wide
//! metrics registry to see the throttle happen.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbr_serve::wire::{encode_frame, FrameReader};
use rbr_serve::{serve, Request, Response, ServerConfig};

fn send(stream: &mut TcpStream, req: &Request) {
    stream
        .write_all(&encode_frame(&req.to_json()))
        .expect("write");
}

#[test]
fn a_client_that_stops_reading_is_throttled_then_drains_clean() {
    rbr_obs::metrics::set_enabled(true);
    let throttles = rbr_obs::metrics::counter("serve.backpressure_throttles");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || serve(listener, &ServerConfig::default()));
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut sender = stream.try_clone().expect("clone");
    // Each submit is acked at once (batch size 1). The sender keeps
    // submitting until the server reports the throttle, however large
    // the host's socket buffers are, and the test thread reads nothing
    // until then. Once the server stops reading, the sender blocks
    // until the test thread drains the acks.
    let stop = Arc::new(AtomicBool::new(false));
    let stop_sender = Arc::clone(&stop);
    let writer = std::thread::spawn(move || {
        let mut id = 0;
        while !stop_sender.load(Ordering::Relaxed) {
            let req = Request::Submit {
                id,
                arrival_secs: id as f64,
                nodes: 1,
                runtime_secs: 60.0,
            };
            send(&mut sender, &req);
            id += 1;
        }
        send(&mut sender, &Request::Drain);
        id
    });
    let deadline = Instant::now() + Duration::from_secs(120);
    while throttles.value() == 0 {
        assert!(
            Instant::now() < deadline,
            "the server never hit backpressure"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);

    let mut reader = FrameReader::new();
    let mut buf = [0u8; 64 * 1024];
    let mut acks = 0;
    let submits = 'read: loop {
        while let Some(frame) = reader.next_frame().expect("frame") {
            match Response::from_json(&frame).expect("response") {
                Response::Ack { .. } => acks += 1,
                Response::Drained {
                    submits,
                    acks: reported,
                    ..
                } => {
                    assert_eq!(reported, submits);
                    break 'read submits;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "server hung up before the drain report");
        reader.extend(&buf[..n]);
    };
    assert_eq!(writer.join().expect("writer"), submits);
    assert_eq!(acks, submits);
    let stats = server.join().expect("server").expect("clean drain");
    assert_eq!(stats.acks, submits);
}
