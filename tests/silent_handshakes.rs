//! A peer that connects to a handshaking surface and sends nothing must
//! cost that one connection, not the runtime.  Silent TCP connects to
//! the broker's subscribe port and the RMI port of a 2-worker runtime
//! leave an unrelated `/authz` request answered at once; the reactor's
//! idle timer reaps the silent peers like any idle connection, and real
//! RMI clients and subscribers are served afterwards.

use snowflake_broker::topic::{read_publish, subscribe_stream};
use snowflake_broker::{AuthzEndpoint, NamespaceAuthority, TopicBroker};
use snowflake_channel::{SecureChannel, TcpTransport};
use snowflake_core::{Principal, Proof, Time, Validity};
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_http::{HttpClient, HttpRequest, HttpServer};
use snowflake_prover::Prover;
use snowflake_rmi::{FileObject, RmiClient, RmiServer};
use snowflake_runtime::{PoolConfig, ReactorConfig, ServerRuntime};
use snowflake_sexpr::Sexp;
use snowflake_tags::path_vector::{grant_tag, ActionTable, PathPattern};
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const OBJECT_NS: &str = "conference.example.org";
const TOPIC: [&str; 3] = ["rooms", "r1", "events"];

fn fixed_clock() -> Time {
    Time(1_000_000)
}

fn kp(seed: &str) -> KeyPair {
    let mut rng = DetRng::new(seed.as_bytes());
    KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
}

fn alice() -> Principal {
    snowflake_broker::subject_principal("iam.example.org", &["accounts".into(), "alice".into()])
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "{what} never happened");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One 2-worker runtime serving `/authz` over HTTP, broker subscribe,
/// and RMI, each on its own port.
struct Rig {
    runtime: Arc<ServerRuntime>,
    broker: Arc<TopicBroker>,
    proof: Proof,
    http: SocketAddr,
    subscribe: SocketAddr,
    rmi: SocketAddr,
}

impl Rig {
    fn start(idle_timeout: Duration) -> Rig {
        let issuer_kp = kp("silent-issuer");
        let issuer = Principal::key(&issuer_kp.public);
        let mut rng = DetRng::new(b"silent-prover");
        let prover = Arc::new(Prover::with_rng(Box::new(move |b| rng.fill(b))));
        prover.add_key(issuer_kp);
        let grant = grant_tag(
            OBJECT_NS,
            &PathPattern::parse(&["rooms", "*", "events"]),
            &["subscribe"],
        );
        let proof = prover
            .delegate(&alice(), &issuer, grant, Validity::always(), false)
            .unwrap();
        let mut table = ActionTable::new();
        table.allow(&["rooms", "*", "events"], &["subscribe"]);

        let runtime = ServerRuntime::with_reactor_config(
            PoolConfig::new("silent", 2, 16),
            ReactorConfig {
                idle_timeout,
                ..ReactorConfig::default()
            },
        );
        let bind = || TcpListener::bind("127.0.0.1:0").unwrap();

        let endpoint = AuthzEndpoint::with_clock(Arc::clone(&prover), fixed_clock);
        endpoint.add_namespace(
            OBJECT_NS,
            NamespaceAuthority {
                issuer: issuer.clone(),
                table: table.clone(),
            },
        );
        let server = HttpServer::with_clock(fixed_clock);
        server.route("/authz", endpoint);
        let listener = bind();
        let http = listener.local_addr().unwrap();
        server.attach_to_reactor(listener, &runtime).unwrap();

        let broker = TopicBroker::with_clock(
            Arc::clone(&runtime),
            prover,
            OBJECT_NS,
            issuer,
            table,
            fixed_clock,
        );
        let listener = bind();
        let subscribe = listener.local_addr().unwrap();
        broker.attach_subscribe_listener(listener).unwrap();

        let rmi_server = RmiServer::with_clock(fixed_clock);
        let files = HashMap::from([("motd".to_string(), b"hello".to_vec())]);
        let object = FileObject::new(Principal::message(b"silent-files"), files);
        rmi_server.register_open("files", Arc::new(object));
        let listener = bind();
        let rmi = listener.local_addr().unwrap();
        rmi_server
            .serve_reactor(listener, &runtime, kp("silent-rmi-server"), None)
            .unwrap();

        Rig {
            runtime,
            broker,
            proof,
            http,
            subscribe,
            rmi,
        }
    }

    /// Two connects to the subscribe port and two to the RMI port that
    /// never send a byte, held open until the reactor has accepted all.
    fn silent_peers(&self) -> Vec<TcpStream> {
        let before = self.runtime.reactor_stats().accepted;
        let peers: Vec<TcpStream> = [self.subscribe, self.subscribe, self.rmi, self.rmi]
            .iter()
            .map(|addr| TcpStream::connect(addr).unwrap())
            .collect();
        wait_for("the silent accepts", || {
            self.runtime.reactor_stats().accepted >= before + 4
        });
        peers
    }

    /// One `POST /authz` on a fresh connection; returns its status and
    /// how long it took.
    fn authz(&self) -> (u16, Duration) {
        let body = format!(
            "{{\"subject\":{{\"namespace\":\"iam.example.org\",\"value\":[\"accounts\",\"alice\"]}},\
              \"object\":{{\"namespace\":\"{OBJECT_NS}\",\"value\":[\"rooms\",\"r1\",\"events\"]}},\
              \"action\":\"subscribe\"}}"
        );
        let stream = TcpStream::connect(self.http).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut client = HttpClient::new(Box::new(stream));
        let start = Instant::now();
        let resp = client
            .send(&HttpRequest::post("/authz", body.into_bytes()))
            .unwrap();
        (resp.status, start.elapsed())
    }
}

/// Two silent peers per handshaking surface on a 2-worker runtime do not
/// hold a worker: `/authz` is answered in well under a second.
#[test]
fn silent_handshakes_leave_other_surfaces_answering() {
    let rig = Rig::start(Duration::from_secs(30));
    let _silent = rig.silent_peers();

    let (status, took) = rig.authz();
    assert_eq!(status, 200);
    assert!(
        took < Duration::from_secs(1),
        "/authz took {took:?} behind four silent handshakes"
    );
    wait_for("every worker free with the silent peers still open", || {
        rig.runtime.stats().in_flight == 0
    });
    rig.runtime.shutdown();
}

/// A silent handshake is an idle parked connection: the idle timer reaps
/// it (counted in `reaped_idle`, the peer sees EOF), and a real RMI
/// client and a real subscriber complete afterwards.
#[test]
fn silent_handshakes_are_reaped_and_real_peers_still_complete() {
    let rig = Rig::start(Duration::from_millis(500));
    let silent = rig.silent_peers();

    wait_for("the silent peers' reaping", || {
        rig.runtime.reactor_stats().reaped_idle >= 4
    });
    for mut peer in silent {
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut rest = Vec::new();
        peer.read_to_end(&mut rest).expect("a reaped peer sees EOF");
        assert!(rest.is_empty(), "a silent peer is never answered");
    }

    let transport = TcpTransport::new(TcpStream::connect(rig.rmi).unwrap());
    let key = kp("silent-rmi-client");
    let mut rng = DetRng::new(b"silent-rmi-client-rng");
    let channel =
        SecureChannel::client(Box::new(transport), Some(&key), None, &mut |b| rng.fill(b))
            .expect("a real handshake completes");
    let mut client =
        RmiClient::with_clock(Box::new(channel), key, Arc::new(Prover::new()), fixed_clock);
    let motd = client
        .invoke("files", "read", vec![Sexp::from("motd")])
        .unwrap();
    assert_eq!(motd, Sexp::atom(b"hello".to_vec()));

    let mut stream = subscribe_stream(rig.subscribe, &TOPIC, &alice(), &rig.proof)
        .unwrap()
        .expect("a real subscriber is granted");
    wait_for("the subscription", || rig.broker.stats().subscribers == 1);
    rig.broker.publish(&TOPIC, b"still here").unwrap();
    assert_eq!(read_publish(&mut stream).unwrap().1, b"still here");
    rig.runtime.shutdown();
}
