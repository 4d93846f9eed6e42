//! Plain-text cluster configuration for real deployments.
//!
//! One file describes the whole cluster; every node loads the same file
//! and finds itself in it. The format is deliberately TOML-free — line
//! oriented, `#` comments:
//!
//! ```text
//! # 4-replica SBFT cluster, one client
//! f 1
//! c 0
//! seed 42
//! variant sbft
//! profile lan          # lan (default) | wan — transport + protocol tuning
//! replica 0 127.0.0.1:9400
//! replica 1 127.0.0.1:9401
//! replica 2 127.0.0.1:9402
//! replica 3 127.0.0.1:9403
//! client 0 127.0.0.1:9500
//! data_dir /var/lib/sbft   # optional: durable WAL + snapshots per replica
//! fsync batch:8            # optional: always | never | batch[:N]
//! ```
//!
//! `profile` selects a named tuning bundle for the whole cluster:
//! `lan` (the default) keeps aggressive reconnects and tight protocol
//! timers for loopback/datacenter deployments; `wan` raises reconnect
//! backoff, connect timeouts, queue depths, and buffer sizes on the
//! transport, and stretches the protocol's fast-path/view timers to
//! continental round-trip scale.
//!
//! Node ids follow the simulator's numbering: replicas are `0..n`,
//! clients are `n..n+m`, gateways (if any) are `n+m..n+m+g`. Key
//! material is derived deterministically from `seed` by every process
//! (this is a reproduction: a real deployment would run distributed key
//! generation instead).
//!
//! A front-door deployment adds `gateway <id> <host:port>` lines plus a
//! `gateway_sessions N` budget — each gateway multiplexes up to `N`
//! logical client sessions over its one physical connection per replica
//! (see `crates/gateway`). Session reply traffic is routed back through
//! the owning gateway's connection via transport alias ranges, so
//! replicas never hold per-session sockets.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use sbft_sim::NodeId;

use crate::tcp::{AliasRoute, TransportConfig};

/// Protocol variant named in the config (mapped onto
/// `sbft_core::VariantFlags` by the node binary; kept as a plain enum
/// here so the transport crate does not depend on the protocol crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VariantName {
    /// Full SBFT (fast path + execute-acks).
    #[default]
    Sbft,
    /// Linear PBFT only.
    LinearPbft,
    /// Linear PBFT + fast path, direct replies.
    FastPath,
}

/// Named deployment tuning for a whole cluster — one word in the config
/// selects coherent transport and protocol timer bundles, instead of
/// every operator hand-tuning a dozen knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportProfile {
    /// Loopback/datacenter: aggressive reconnects, tight timers.
    #[default]
    Lan,
    /// Continental round-trips: patient reconnects, deep queues, large
    /// buffers, stretched protocol timeouts.
    Wan,
}

/// A parsed cluster description.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Fault threshold.
    pub f: usize,
    /// Redundant-collector parameter.
    pub c: usize,
    /// Master seed for deterministic key material.
    pub seed: u64,
    /// Protocol variant.
    pub variant: VariantName,
    /// Deployment tuning profile (`profile lan` / `profile wan`).
    pub profile: TransportProfile,
    /// Verification-pipeline worker threads per replica
    /// (`verify_threads N`). `0` (the default) resolves from the host's
    /// core count at boot; `1` runs the replica's inbound checks on its
    /// node thread, `>= 2` on that many worker threads.
    pub verify_threads: usize,
    /// Where each replica executes committed blocks (`exec_threads N`).
    /// `0` (the default) resolves from the host's core count at boot;
    /// `1` executes in place on the node thread; `>= 2` executes on one
    /// dedicated executor thread (every width past 1 means that one
    /// thread). Either way a block runs the same algorithm, op by op.
    pub exec_threads: usize,
    /// Base directory for durable replica state (`data_dir <path>`).
    /// Each replica persists its commit WAL and checkpoint snapshot
    /// under `<path>/replica-<id>`; unset runs fully in memory (state
    /// rebuilt from peers after any restart).
    pub data_dir: Option<String>,
    /// WAL fsync policy spelling (`fsync always|never|batch|batch:N`),
    /// parsed by the durability layer at boot. `None` = the layer's
    /// default (`batch:8`). Kept as a string so the transport crate
    /// stays independent of the storage crate.
    pub fsync: Option<String>,
    /// Replica listen addresses, indexed by replica id (`0..n`).
    pub replicas: Vec<String>,
    /// Client listen addresses, indexed by client id.
    pub clients: Vec<String>,
    /// Gateway listen addresses, indexed by gateway id
    /// (`gateway <id> <host:port>`). Usually zero or one; each entry is
    /// a front door multiplexing `gateway_sessions` logical clients.
    pub gateways: Vec<String>,
    /// Logical client sessions each gateway may carry
    /// (`gateway_sessions N`). Required (> 0) when any `gateway` line is
    /// present: it sizes the session id block reserved per gateway, and
    /// the alias ranges replicas use to route replies back through the
    /// gateway connection.
    pub gateway_sessions: usize,
}

/// Error from parsing a cluster config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the problem (0 for whole-file problems).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "config: {}", self.message)
        } else {
            write!(f, "config line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

impl ClusterSpec {
    /// Parses the plain-text format above.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending line for unknown
    /// directives, malformed values, duplicate/missing ids, or a replica
    /// count that contradicts `n = 3f + 2c + 1`.
    pub fn parse(text: &str) -> Result<ClusterSpec, ConfigError> {
        let mut f = None;
        let mut c = None;
        let mut seed = 0u64;
        let mut verify_threads = 0usize;
        let mut exec_threads = 0usize;
        let mut variant = VariantName::default();
        let mut profile = TransportProfile::default();
        let mut data_dir = None;
        let mut fsync = None;
        let mut gateway_sessions = 0usize;
        let mut replicas: BTreeMap<usize, String> = BTreeMap::new();
        let mut clients: BTreeMap<usize, String> = BTreeMap::new();
        let mut gateways: BTreeMap<usize, String> = BTreeMap::new();

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let directive = parts.next().expect("non-empty line");
            let args: Vec<&str> = parts.collect();
            match directive {
                "f" | "c" | "seed" | "verify_threads" | "exec_threads" | "gateway_sessions" => {
                    let [value] = args[..] else {
                        return Err(err(lineno, format!("`{directive}` takes one value")));
                    };
                    let parsed: u64 = value
                        .parse()
                        .map_err(|_| err(lineno, format!("`{value}` is not a number")))?;
                    match directive {
                        "f" => f = Some(parsed as usize),
                        "c" => c = Some(parsed as usize),
                        "verify_threads" => verify_threads = parsed as usize,
                        "exec_threads" => exec_threads = parsed as usize,
                        "gateway_sessions" => gateway_sessions = parsed as usize,
                        _ => seed = parsed,
                    }
                }
                "variant" => {
                    let [value] = args[..] else {
                        return Err(err(lineno, "`variant` takes one value"));
                    };
                    variant = match value {
                        "sbft" => VariantName::Sbft,
                        "linear-pbft" => VariantName::LinearPbft,
                        "fast-path" => VariantName::FastPath,
                        other => {
                            return Err(err(
                                lineno,
                                format!(
                                    "unknown variant `{other}` (sbft | linear-pbft | fast-path)"
                                ),
                            ))
                        }
                    };
                }
                "profile" => {
                    let [value] = args[..] else {
                        return Err(err(lineno, "`profile` takes one value"));
                    };
                    profile = match value {
                        "lan" => TransportProfile::Lan,
                        "wan" => TransportProfile::Wan,
                        other => {
                            return Err(err(
                                lineno,
                                format!("unknown profile `{other}` (lan | wan)"),
                            ))
                        }
                    };
                }
                "data_dir" => {
                    let [value] = args[..] else {
                        return Err(err(lineno, "`data_dir` takes one path"));
                    };
                    data_dir = Some(value.to_string());
                }
                "fsync" => {
                    let [value] = args[..] else {
                        return Err(err(lineno, "`fsync` takes one value"));
                    };
                    // Mirror the durability layer's grammar so a typo
                    // fails at config load, not at replica boot.
                    let ok = matches!(value, "always" | "never" | "batch")
                        || value
                            .strip_prefix("batch:")
                            .is_some_and(|n| n.parse::<u32>().is_ok());
                    if !ok {
                        return Err(err(
                            lineno,
                            format!("unknown fsync policy `{value}` (always | never | batch[:N])"),
                        ));
                    }
                    fsync = Some(value.to_string());
                }
                "replica" | "client" | "gateway" => {
                    let [id, addr] = args[..] else {
                        return Err(err(lineno, format!("`{directive}` takes <id> <host:port>")));
                    };
                    let id: usize = id
                        .parse()
                        .map_err(|_| err(lineno, format!("`{id}` is not an id")))?;
                    if !addr.contains(':') {
                        return Err(err(lineno, format!("`{addr}` is not host:port")));
                    }
                    let table = match directive {
                        "replica" => &mut replicas,
                        "client" => &mut clients,
                        _ => &mut gateways,
                    };
                    if table.insert(id, addr.to_string()).is_some() {
                        return Err(err(lineno, format!("duplicate {directive} id {id}")));
                    }
                }
                other => return Err(err(lineno, format!("unknown directive `{other}`"))),
            }
        }

        let f = f.ok_or_else(|| err(0, "missing `f`"))?;
        let c = c.unwrap_or(0);
        let n = 3 * f + 2 * c + 1;
        if replicas.len() != n {
            return Err(err(
                0,
                format!(
                    "expected n = 3f+2c+1 = {n} replicas, found {}",
                    replicas.len()
                ),
            ));
        }
        let contiguous = |table: &BTreeMap<usize, String>, what: &str| {
            for (expect, id) in table.keys().enumerate() {
                if *id != expect {
                    return Err(err(
                        0,
                        format!("{what} ids must be 0..{}, missing {expect}", table.len()),
                    ));
                }
            }
            Ok(())
        };
        contiguous(&replicas, "replica")?;
        contiguous(&clients, "client")?;
        contiguous(&gateways, "gateway")?;
        if !gateways.is_empty() && gateway_sessions == 0 {
            return Err(err(
                0,
                "`gateway` declared without `gateway_sessions N` (N > 0)",
            ));
        }

        Ok(ClusterSpec {
            f,
            c,
            seed,
            variant,
            profile,
            verify_threads,
            exec_threads,
            data_dir,
            fsync,
            replicas: replicas.into_values().collect(),
            clients: clients.into_values().collect(),
            gateways: gateways.into_values().collect(),
            gateway_sessions,
        })
    }

    /// Resolves `verify_threads` for this host: an explicit value is
    /// used as-is; `0` (auto) takes the cores left over after the node
    /// thread, capped at 4 (per-replica verification saturates well
    /// before that in a 4-replica cluster). A 1- or 2-core host resolves
    /// to 1: the node thread checks its own inbound frames, the
    /// zero-handoff path that stays the fast path there.
    pub fn resolved_verify_threads(&self) -> usize {
        if self.verify_threads > 0 {
            return self.verify_threads;
        }
        std::thread::available_parallelism()
            .map(|cores| cores.get().saturating_sub(1).clamp(1, 4))
            .unwrap_or(1)
    }

    /// Resolves `exec_threads` for this host: an explicit value is used
    /// as-is; `0` (auto) resolves to 2 (the executor thread) on hosts
    /// with at least 4 cores, which have one to spare beyond the node
    /// thread and the verify pool, and to 1 (in place on the node thread)
    /// otherwise. On a 2-core host the executor thread lost to in-place
    /// execution with one-put requests; with more cores it is unmeasured.
    pub fn resolved_exec_threads(&self) -> usize {
        if self.exec_threads > 0 {
            return self.exec_threads;
        }
        std::thread::available_parallelism()
            .map(|cores| if cores.get() >= 4 { 2 } else { 1 })
            .unwrap_or(1)
    }

    /// Loads and parses a config file.
    ///
    /// # Errors
    ///
    /// I/O problems surface as a line-0 [`ConfigError`].
    pub fn load(path: impl AsRef<Path>) -> Result<ClusterSpec, ConfigError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| err(0, format!("reading {}: {e}", path.as_ref().display())))?;
        ClusterSpec::parse(&text)
    }

    /// Cluster size `n = 3f + 2c + 1`.
    pub fn n(&self) -> usize {
        self.replicas.len()
    }

    /// Node id of a replica (identity, by the shared numbering).
    pub fn replica_node(&self, r: usize) -> NodeId {
        r
    }

    /// Node id of a client.
    pub fn client_node(&self, c: usize) -> NodeId {
        self.n() + c
    }

    /// Node id of a gateway (gateways number after clients).
    pub fn gateway_node(&self, g: usize) -> NodeId {
        self.n() + self.clients.len() + g
    }

    /// First *client id* of gateway `g`'s session block. Sessions get
    /// client ids above every standalone client and every gateway's
    /// reply slot, so their reply node ids (`n + client_id`) collide
    /// with nothing that has a socket of its own.
    pub fn session_client_base(&self, g: usize) -> usize {
        self.clients.len() + self.gateways.len() + g * self.gateway_sessions
    }

    /// The *node id* range (`lo..hi`) replicas reply into for gateway
    /// `g`'s sessions — the transport alias range routed via the
    /// gateway's connection.
    pub fn session_node_range(&self, g: usize) -> (NodeId, NodeId) {
        let lo = self.n() + self.session_client_base(g);
        (lo, lo + self.gateway_sessions)
    }

    /// Listen address of a node id.
    pub fn addr_of(&self, node: NodeId) -> Option<&str> {
        if node < self.n() {
            self.replicas.get(node).map(String::as_str)
        } else if node < self.n() + self.clients.len() {
            self.clients.get(node - self.n()).map(String::as_str)
        } else {
            self.gateways
                .get(node - self.n() - self.clients.len())
                .map(String::as_str)
        }
    }

    /// The profile-tuned [`TransportConfig`] for `me`: peer table from
    /// [`Self::peers_for`], knobs (reconnect cadence, queue depths,
    /// buffer sizes) from [`Self::profile`].
    pub fn transport_config(&self, me: NodeId) -> TransportConfig {
        let peers = self.peers_for(me);
        let mut config = match self.profile {
            TransportProfile::Lan => TransportConfig::new(me, peers),
            TransportProfile::Wan => TransportConfig::wan(me, peers),
        };
        // Replicas answer gateway sessions over the owning gateway's
        // connection: sessions have no sockets, only alias ranges.
        if me < self.n() {
            for g in 0..self.gateways.len() {
                let (lo, hi) = self.session_node_range(g);
                config.alias_routes.push(AliasRoute {
                    lo,
                    hi,
                    via: self.gateway_node(g),
                });
            }
        }
        config
    }

    /// `(node_id, addr)` pairs `me` actually talks to — the transport's
    /// peer table. Replicas dial everyone; clients dial replicas and
    /// gateways (no protocol message ever flows client-to-client, and
    /// clients come and go, so those connections would just churn
    /// forever); gateways dial replicas and clients.
    pub fn peers_for(&self, me: NodeId) -> Vec<(NodeId, String)> {
        let n = self.n();
        let everyone = n + self.clients.len() + self.gateways.len();
        let nodes: Vec<NodeId> = if me < n {
            (0..everyone).collect()
        } else if me < n + self.clients.len() {
            (0..n).chain(self.gateway_node(0)..everyone).collect()
        } else {
            (0..n + self.clients.len()).collect()
        };
        nodes
            .into_iter()
            .filter(|node| *node != me)
            .filter_map(|node| Some((node, self.addr_of(node)?.to_string())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "
        # demo cluster
        f 1
        c 0
        seed 7
        variant sbft
        replica 0 127.0.0.1:9400   # primary
        replica 1 127.0.0.1:9401
        replica 2 127.0.0.1:9402
        replica 3 127.0.0.1:9403
        client 0 127.0.0.1:9500
    ";

    #[test]
    fn parses_a_full_cluster() {
        let spec = ClusterSpec::parse(GOOD).unwrap();
        assert_eq!(spec.n(), 4);
        assert_eq!(spec.f, 1);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.variant, VariantName::Sbft);
        assert_eq!(spec.clients.len(), 1);
        assert_eq!(spec.client_node(0), 4);
        assert_eq!(spec.addr_of(4), Some("127.0.0.1:9500"));
        let peers = spec.peers_for(0);
        assert_eq!(peers.len(), 4);
        assert!(peers.iter().all(|(id, _)| *id != 0));
        // Clients dial replicas only — never other clients.
        let client_peers = spec.peers_for(spec.client_node(0));
        assert_eq!(client_peers.len(), 4);
        assert!(client_peers.iter().all(|(id, _)| *id < spec.n()));
    }

    #[test]
    fn profile_directive_selects_transport_tuning() {
        assert_eq!(
            ClusterSpec::parse(GOOD).unwrap().profile,
            TransportProfile::Lan,
            "lan is the default"
        );
        let wan_text = format!("profile wan\n{GOOD}");
        let spec = ClusterSpec::parse(&wan_text).unwrap();
        assert_eq!(spec.profile, TransportProfile::Wan);
        let lan = ClusterSpec::parse(GOOD).unwrap().transport_config(0);
        let wan = spec.transport_config(0);
        assert_eq!(lan.peers, wan.peers, "profile changes tuning, not peers");
        assert!(wan.reconnect_base > lan.reconnect_base);
        assert!(wan.connect_timeout > lan.connect_timeout);
        assert!(wan.outbound_queue > lan.outbound_queue);
        assert!(wan.read_buffer > lan.read_buffer);
        let e = ClusterSpec::parse("profile metro\nf 0\nreplica 0 a:1\n").unwrap_err();
        assert!(e.message.contains("unknown profile"), "{e}");
    }

    #[test]
    fn verify_threads_directive_parses_and_resolves() {
        let spec = ClusterSpec::parse(GOOD).unwrap();
        assert_eq!(spec.verify_threads, 0, "auto is the default");
        assert!(
            spec.resolved_verify_threads() >= 1,
            "auto resolves to at least one worker"
        );
        let text = format!("verify_threads 3\n{GOOD}");
        let spec = ClusterSpec::parse(&text).unwrap();
        assert_eq!(spec.verify_threads, 3);
        assert_eq!(spec.resolved_verify_threads(), 3, "explicit wins");
        let bad = format!("verify_threads lots\n{GOOD}");
        assert!(ClusterSpec::parse(&bad)
            .unwrap_err()
            .message
            .contains("not a number"));
    }

    #[test]
    fn exec_threads_directive_parses_and_resolves() {
        let spec = ClusterSpec::parse(GOOD).unwrap();
        assert_eq!(spec.exec_threads, 0, "auto is the default");
        assert!(
            spec.resolved_exec_threads() >= 1,
            "auto resolves to at least the inline path"
        );
        let text = format!("exec_threads 4\n{GOOD}");
        let spec = ClusterSpec::parse(&text).unwrap();
        assert_eq!(spec.exec_threads, 4);
        assert_eq!(spec.resolved_exec_threads(), 4, "explicit wins");
        let inline = format!("exec_threads 1\n{GOOD}");
        assert_eq!(
            ClusterSpec::parse(&inline).unwrap().resolved_exec_threads(),
            1,
            "1 pins execution inline on the node thread"
        );
    }

    #[test]
    fn data_dir_and_fsync_directives_parse() {
        let spec = ClusterSpec::parse(GOOD).unwrap();
        assert_eq!(spec.data_dir, None, "in-memory is the default");
        assert_eq!(spec.fsync, None);
        let text = format!("data_dir /var/lib/sbft\nfsync batch:16\n{GOOD}");
        let spec = ClusterSpec::parse(&text).unwrap();
        assert_eq!(spec.data_dir.as_deref(), Some("/var/lib/sbft"));
        assert_eq!(spec.fsync.as_deref(), Some("batch:16"));
        for good in ["always", "never", "batch", "batch:1"] {
            let text = format!("fsync {good}\n{GOOD}");
            assert!(ClusterSpec::parse(&text).is_ok(), "fsync {good}");
        }
        let bad = format!("fsync sometimes\n{GOOD}");
        let e = ClusterSpec::parse(&bad).unwrap_err();
        assert!(e.message.contains("unknown fsync policy"), "{e}");
    }

    #[test]
    fn gateway_directives_parse_and_number_after_clients() {
        let spec = ClusterSpec::parse(GOOD).unwrap();
        assert!(spec.gateways.is_empty(), "no gateway by default");
        assert_eq!(spec.gateway_sessions, 0);

        let text = format!("gateway 0 127.0.0.1:9600\ngateway_sessions 1000\n{GOOD}");
        let spec = ClusterSpec::parse(&text).unwrap();
        assert_eq!(spec.gateways.len(), 1);
        assert_eq!(spec.gateway_sessions, 1000);
        // replicas 0..4, client 4, gateway 5, sessions reply to 6..1006.
        assert_eq!(spec.gateway_node(0), 5);
        assert_eq!(spec.addr_of(5), Some("127.0.0.1:9600"));
        assert_eq!(spec.session_client_base(0), 2);
        assert_eq!(spec.session_node_range(0), (6, 1006));

        // Replicas dial the gateway; the gateway dials replicas and
        // clients but not itself; clients now also dial the gateway.
        assert!(spec.peers_for(0).iter().any(|(id, _)| *id == 5));
        let gw_peers = spec.peers_for(5);
        assert_eq!(gw_peers.len(), 5);
        assert!(gw_peers.iter().all(|(id, _)| *id < 5));
        assert!(spec.peers_for(4).iter().any(|(id, _)| *id == 5));

        // Replicas get the session alias range via the gateway; the
        // gateway and clients do not.
        let replica = spec.transport_config(0);
        assert_eq!(
            replica.alias_routes,
            vec![AliasRoute {
                lo: 6,
                hi: 1006,
                via: 5
            }]
        );
        assert!(spec.transport_config(5).alias_routes.is_empty());
        assert!(spec.transport_config(4).alias_routes.is_empty());
    }

    #[test]
    fn gateway_requires_a_session_budget() {
        let text = format!("gateway 0 127.0.0.1:9600\n{GOOD}");
        let e = ClusterSpec::parse(&text).unwrap_err();
        assert!(e.message.contains("gateway_sessions"), "{e}");
    }

    #[test]
    fn replica_count_must_match_f_and_c() {
        let bad = "f 2\nreplica 0 a:1\nreplica 1 a:2\n";
        let e = ClusterSpec::parse(bad).unwrap_err();
        assert!(e.message.contains("3f+2c+1"), "{e}");
    }

    #[test]
    fn rejects_unknown_directives_and_duplicates() {
        assert!(ClusterSpec::parse("bogus 1\n")
            .unwrap_err()
            .message
            .contains("unknown"));
        let dup = "f 1\nreplica 0 a:1\nreplica 0 a:2\nreplica 2 a:3\nreplica 3 a:4\n";
        assert!(ClusterSpec::parse(dup)
            .unwrap_err()
            .message
            .contains("duplicate"));
    }

    #[test]
    fn rejects_gaps_in_ids() {
        let gap = "f 1\nreplica 0 a:1\nreplica 1 a:2\nreplica 2 a:3\nreplica 4 a:4\n";
        let e = ClusterSpec::parse(gap).unwrap_err();
        assert!(e.message.contains("must be 0.."), "{e}");
    }

    #[test]
    fn missing_f_is_an_error() {
        let e = ClusterSpec::parse("seed 1\n").unwrap_err();
        assert!(e.message.contains("missing `f`"));
    }
}
