//! The four workloads.  Each module plans one client thread's fixed
//! operation sequence from the seed — establishing what the traffic needs
//! and running the deny controls through the same exchange the operations
//! will use — and provides the loopback-TCP client that replays the plan
//! against the server child.  `crate::replay` feeds the same plans to an
//! in-process stack.

pub mod admission;
pub mod mail;
pub mod web;

use crate::child::ServerChild;
use crate::drive::{Client, CLIENT_THREADS};
use crate::inputs::{self, Bundle, Member, Owners, WebClient};
use crate::spec::Kind;
use snowflake::http::{HttpRequest, HttpResponse};

/// How set-up traffic reaches a server: over TCP to the child, or straight
/// into `HttpServer::respond` in the replay.
pub type Exchange<'a> = &'a mut dyn FnMut(&HttpRequest) -> std::io::Result<HttpResponse>;

/// Everything generated from the seed before any server exists.
pub struct World {
    pub workload: Kind,
    pub seed: u64,
    pub owners: Owners,
    pub docs: std::sync::Arc<Vec<Vec<u8>>>,
    pub web_clients: Vec<WebClient>,
    pub members: Vec<Member>,
    /// Distinct pre-signed requests per client thread (`signed_fresh`).
    pub signed_per_client: usize,
}

impl World {
    pub fn generate(workload: Kind, seed: u64, signed_per_client: usize) -> World {
        let owners = Owners::generate(seed);
        let (web_clients, members) = match workload {
            Kind::MacSteady | Kind::SignedFresh => {
                (inputs::web_clients(seed, &owners.web), Vec::new())
            }
            Kind::RmiMail => (Vec::new(), Vec::new()),
            Kind::BrokerAdmission => (Vec::new(), inputs::members(seed, &owners.broker)),
        };
        World {
            workload,
            seed,
            docs: std::sync::Arc::new(inputs::docs(seed)),
            web_clients,
            members,
            owners,
            signed_per_client,
        }
    }

    /// The public bytes a server for this workload starts with.
    pub fn bundle(&self) -> Bundle {
        let proofs = self.members.iter().map(|m| m.proof.clone()).collect();
        Bundle::new(self.seed, &self.owners, self.docs.to_vec(), proofs)
    }
}

/// What set-up observed: deny controls and the client-side costs that
/// make up `setup_s`.
#[derive(Default)]
pub struct SetupNotes {
    pub controls: usize,
    pub controls_refused: usize,
    /// `(per-layer metric, samples)`; the metric is their median.
    pub timings: Vec<(&'static str, Vec<f64>)>,
}

impl SetupNotes {
    pub fn control(&mut self, refused: bool) {
        self.controls += 1;
        self.controls_refused += usize::from(refused);
    }

    pub fn time(&mut self, metric: &'static str, value: f64) {
        match self.timings.iter_mut().find(|(m, _)| *m == metric) {
            Some((_, v)) => v.push(value),
            None => self.timings.push((metric, vec![value])),
        }
    }

    pub fn merge(&mut self, other: SetupNotes) {
        self.controls += other.controls;
        self.controls_refused += other.controls_refused;
        for (metric, values) in other.timings {
            for v in values {
                self.time(metric, v);
            }
        }
    }

    pub fn median(&self, metric: &str) -> f64 {
        self.timings
            .iter()
            .find(|(m, _)| *m == metric)
            .map_or(0.0, |(_, v)| crate::stats::median(v))
    }
}

/// Sets up both client threads against the child, in parallel as two real
/// clients would, and returns them ready to drive.
pub fn tcp_clients(
    world: &World,
    child: &ServerChild,
) -> Result<(Vec<Box<dyn Client>>, SetupNotes), String> {
    let results: Vec<Result<_, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|thread| {
                scope.spawn(move || match world.workload {
                    Kind::MacSteady | Kind::SignedFresh => web::tcp_client(world, child, thread),
                    Kind::RmiMail => mail::tcp_client(world, child, thread),
                    Kind::BrokerAdmission => admission::tcp_client(world, child, thread),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client set-up panicked".into()))
            })
            .collect()
    });
    let mut clients = Vec::new();
    let mut notes = SetupNotes::default();
    for r in results {
        let (client, n) = r?;
        clients.push(client);
        notes.merge(n);
    }
    Ok((clients, notes))
}
