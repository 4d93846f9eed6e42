//! The transaction layer: "an interface for modeling the two main Ethereum
//! transaction types (contract creation and contract execution) as
//! operations in our replicated service" (§IV).
//!
//! [`EvmService`] implements [`sbft_statedb::Service`], so the replication
//! protocols run it exactly as they run the key-value store: the layered
//! architecture the paper advertises (BFT engine → authenticated KV →
//! smart-contract engine).

use std::fmt;

use sbft_types::{Digest, SeqNum, U256};

use sbft_crypto::{sha256, Sha256};
use sbft_statedb::{
    execute_ops_parallel, AuthKv, BlockExecution, OpExecutor, PlannedOp, RawOp, ReadWriteSet,
    Service, WavePool, WriteCmd,
};
use sbft_wire::{DecodeError, Decoder, Encoder, Wire};

use crate::vm::{execute, ExecEnv, Storage, VmError};

/// A 20-byte contract/account address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// Derives the address of a contract created by `sender` at `nonce`.
    pub fn for_contract(sender: &Address, nonce: u64) -> Address {
        let mut h = Sha256::new();
        h.update(b"sbft-evm-create|");
        h.update(&sender.0);
        h.update(&nonce.to_le_bytes());
        let digest = h.finalize();
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest.as_bytes()[..20]);
        Address(out)
    }

    /// Derives a deterministic externally-owned account address.
    pub fn account(index: u64) -> Address {
        let digest = sha256(&format!("sbft-evm-account|{index}").into_bytes());
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest.as_bytes()[..20]);
        Address(out)
    }

    /// The address as a 256-bit word (EVM `CALLER`/`ADDRESS` convention).
    pub fn to_word(&self) -> U256 {
        U256::from_be_slice(&self.0)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", sbft_types::encode_hex(&self.0))
    }
}

impl Wire for Address {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(&self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Address(dec.get_array::<20>()?))
    }
    fn wire_len(&self) -> usize {
        20
    }
}

/// An Ethereum-style transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transaction {
    /// Deploys `code` as a new contract.
    Create {
        /// The deploying account.
        sender: Address,
        /// Runtime bytecode to install.
        code: Vec<u8>,
        /// Gas limit for the deployment.
        gas_limit: u64,
    },
    /// Invokes the contract at `to` with `data` as calldata.
    Call {
        /// The calling account.
        sender: Address,
        /// Target contract.
        to: Address,
        /// Calldata.
        data: Vec<u8>,
        /// Gas limit for the call.
        gas_limit: u64,
    },
    /// A client-side batch (§IX: clients submit ~12 kB chunks of about 50
    /// transactions). Executes each transaction in order; nesting is not
    /// allowed.
    Batch(Vec<Transaction>),
}

impl Wire for Transaction {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Transaction::Create {
                sender,
                code,
                gas_limit,
            } => {
                enc.put_u8(0);
                sender.encode(enc);
                enc.put_bytes(code);
                enc.put_varint(*gas_limit);
            }
            Transaction::Call {
                sender,
                to,
                data,
                gas_limit,
            } => {
                enc.put_u8(1);
                sender.encode(enc);
                to.encode(enc);
                enc.put_bytes(data);
                enc.put_varint(*gas_limit);
            }
            Transaction::Batch(txs) => {
                enc.put_u8(2);
                enc.put_varint(txs.len() as u64);
                for tx in txs {
                    tx.encode(enc);
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(Transaction::Create {
                sender: Address::decode(dec)?,
                code: dec.get_bytes()?.to_vec(),
                gas_limit: dec.get_varint()?,
            }),
            1 => Ok(Transaction::Call {
                sender: Address::decode(dec)?,
                to: Address::decode(dec)?,
                data: dec.get_bytes()?.to_vec(),
                gas_limit: dec.get_varint()?,
            }),
            2 => {
                let count = dec.get_varint()? as usize;
                if count > dec.remaining() {
                    return Err(DecodeError::UnexpectedEof {
                        needed: count,
                        remaining: dec.remaining(),
                    });
                }
                let mut txs = Vec::with_capacity(count);
                for _ in 0..count {
                    txs.push(Transaction::decode(dec)?);
                }
                Ok(Transaction::Batch(txs))
            }
            _ => Err(DecodeError::InvalidValue {
                what: "transaction tag",
            }),
        }
    }
}

/// Outcome of one transaction, as recorded in the block's results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxReceipt {
    /// Successful execution with its return data (for `Create`, the new
    /// contract's address bytes).
    Success(Vec<u8>),
    /// The transaction reverted or failed; carries a reason label.
    Failed(String),
}

impl TxReceipt {
    /// Encodes the receipt into result bytes (status byte + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            TxReceipt::Success(data) => {
                out.push(1);
                out.extend_from_slice(data);
            }
            TxReceipt::Failed(reason) => {
                out.push(0);
                out.extend_from_slice(reason.as_bytes());
            }
        }
        out
    }

    /// Decodes a receipt from result bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<TxReceipt> {
        match bytes.first()? {
            1 => Some(TxReceipt::Success(bytes[1..].to_vec())),
            0 => Some(TxReceipt::Failed(
                String::from_utf8_lossy(&bytes[1..]).into_owned(),
            )),
            _ => None,
        }
    }

    /// `true` for a successful receipt.
    pub fn is_success(&self) -> bool {
        matches!(self, TxReceipt::Success(_))
    }
}

/// CPU/IO cost model for contract execution (calibrated against the
/// paper's "840 transactions per second" single-machine baseline, §IX).
#[derive(Debug, Clone)]
pub struct EvmCostModel {
    /// Nanoseconds of CPU per unit of gas.
    pub per_gas_ns: u64,
    /// Fixed cost per transaction (signature check, dispatch, journal).
    pub per_tx_ns: u64,
    /// Per-block persistence cost (RocksDB commit, §VIII).
    pub commit_ns: u64,
}

impl Default for EvmCostModel {
    fn default() -> Self {
        EvmCostModel {
            per_gas_ns: 28,
            per_tx_ns: 300_000,
            commit_ns: 300_000,
        }
    }
}

const INTRINSIC_GAS: u64 = 21_000;

/// Storage keys inside the authenticated KV store.
fn code_key(addr: &Address) -> Vec<u8> {
    let mut k = Vec::with_capacity(21);
    k.push(b'c');
    k.extend_from_slice(&addr.0);
    k
}

fn nonce_key(addr: &Address) -> Vec<u8> {
    let mut k = Vec::with_capacity(21);
    k.push(b'n');
    k.extend_from_slice(&addr.0);
    k
}

fn slot_key(addr: &Address, slot: &U256) -> Vec<u8> {
    let mut k = Vec::with_capacity(53);
    k.push(b's');
    k.extend_from_slice(&addr.0);
    k.extend_from_slice(&slot.to_be_bytes());
    k
}

/// Conflict token for one account. Every storage key a `Call` can touch
/// embeds the contract address (the VM subset has no cross-contract
/// opcodes), so one per-address token covers the code key and all slots.
fn account_token(addr: &Address) -> Vec<u8> {
    addr.0.to_vec()
}

/// Mutation sink shared by the serial and planning paths: writes go to a
/// state (the live trie serially, a private scratch clone when planning
/// on a worker) and are optionally recorded for the wave apply phase.
struct TxSink<'a> {
    state: &'a mut AuthKv,
    writes: Option<&'a mut Vec<WriteCmd>>,
}

impl TxSink<'_> {
    fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) {
        let key_hash = *sha256(&key).as_bytes();
        if let Some(writes) = self.writes.as_deref_mut() {
            writes.push(WriteCmd::Put {
                key_hash,
                key: key.clone(),
                value: value.clone(),
            });
        }
        self.state.insert_hashed(key_hash, key, value);
    }

    fn remove(&mut self, key: &[u8]) {
        let key_hash = *sha256(key).as_bytes();
        if let Some(writes) = self.writes.as_deref_mut() {
            writes.push(WriteCmd::Delete {
                key_hash,
                key: key.to_vec(),
            });
        }
        self.state.remove_hashed(&key_hash, key);
    }
}

/// A journaling storage view scoped to one contract: reads hit the
/// underlying store, writes buffer in the journal and only apply on
/// success (reverted transactions leave no trace).
struct JournaledStorage<'a> {
    state: &'a AuthKv,
    address: Address,
    journal: Vec<(U256, U256)>,
}

impl Storage for JournaledStorage<'_> {
    fn sload(&self, key: &U256) -> U256 {
        // Later journal entries shadow earlier ones and the backing store.
        for (k, v) in self.journal.iter().rev() {
            if k == key {
                return *v;
            }
        }
        self.state
            .get(&slot_key(&self.address, key))
            .map(U256::from_be_slice)
            .unwrap_or(U256::ZERO)
    }

    fn sstore(&mut self, key: U256, value: U256) {
        self.journal.push((key, value));
    }
}

/// The EVM replicated service (implements [`Service`]).
///
/// # Examples
///
/// ```
/// use sbft_evm::{counter_code, EvmService, Address, Transaction, TxReceipt};
/// use sbft_statedb::Service;
/// use sbft_types::SeqNum;
/// use sbft_wire::Wire;
///
/// let mut svc = EvmService::new();
/// let deployer = Address::account(0);
/// let create = Transaction::Create {
///     sender: deployer,
///     code: counter_code(),
///     gas_limit: 1_000_000,
/// };
/// let exec = svc.execute_block(SeqNum::new(1), &[create.to_wire_bytes()]);
/// let receipt = TxReceipt::from_bytes(&exec.results[0]).unwrap();
/// assert!(receipt.is_success());
/// ```
#[derive(Debug, Default)]
pub struct EvmService {
    state: AuthKv,
    last_executed: SeqNum,
    last_digest: Digest,
    cost: EvmCostModel,
    /// Total gas consumed since construction (throughput diagnostics).
    pub total_gas: u64,
}

impl EvmService {
    /// Creates an empty EVM service.
    pub fn new() -> Self {
        EvmService::default()
    }

    /// Creates a service with a custom cost model.
    pub fn with_cost(cost: EvmCostModel) -> Self {
        EvmService {
            cost,
            ..EvmService::default()
        }
    }

    /// Reads a contract's storage slot from the current state.
    pub fn storage_at(&self, contract: &Address, slot: &U256) -> U256 {
        self.state
            .get(&slot_key(contract, slot))
            .map(U256::from_be_slice)
            .unwrap_or(U256::ZERO)
    }

    /// Returns a contract's code, if deployed.
    pub fn code_at(&self, contract: &Address) -> Option<Vec<u8>> {
        self.state.get(&code_key(contract)).map(<[u8]>::to_vec)
    }

    /// Direct access to the underlying authenticated store.
    pub fn state(&self) -> &AuthKv {
        &self.state
    }

    /// Replaces the state wholesale (state transfer).
    pub fn install_snapshot(&mut self, state: AuthKv, seq: SeqNum, digest: Digest) {
        self.state = state;
        self.last_executed = seq;
        self.last_digest = digest;
    }

    /// Ends a block on either execution path: records the new frontier
    /// and returns the block's execution.
    fn finish(
        &mut self,
        seq: SeqNum,
        ops: &[RawOp],
        results: Vec<Vec<u8>>,
        cpu_cost_ns: u64,
    ) -> BlockExecution {
        let execution = BlockExecution::finish(seq, self.state.root(), ops, results, cpu_cost_ns);
        self.last_executed = seq;
        self.last_digest = execution.state_digest;
        execution
    }
}

fn next_nonce(sink: &mut TxSink<'_>, addr: &Address) -> u64 {
    let key = nonce_key(addr);
    let nonce = sink
        .state
        .get(&key)
        .map(U256::from_be_slice)
        .unwrap_or(U256::ZERO)
        .low_u64();
    sink.insert(key, U256::from(nonce + 1).to_be_bytes().to_vec());
    nonce
}

fn apply_tx(sink: &mut TxSink<'_>, seq: SeqNum, raw: &[u8]) -> (TxReceipt, u64) {
    let tx = match Transaction::from_wire_bytes(raw) {
        Ok(tx) => tx,
        // Malformed transactions fail deterministically.
        Err(_) => return (TxReceipt::Failed("malformed".into()), INTRINSIC_GAS),
    };
    apply_decoded(sink, seq, tx, true)
}

fn apply_decoded(
    sink: &mut TxSink<'_>,
    seq: SeqNum,
    tx: Transaction,
    allow_batch: bool,
) -> (TxReceipt, u64) {
    match tx {
        Transaction::Batch(txs) => {
            if !allow_batch {
                return (TxReceipt::Failed("nested batch".into()), INTRINSIC_GAS);
            }
            // Execute each transaction; the receipt records how many
            // succeeded out of the batch.
            let mut gas = 0u64;
            let mut ok = 0u32;
            let total = txs.len() as u32;
            for tx in txs {
                let (receipt, g) = apply_decoded(sink, seq, tx, false);
                gas += g;
                if receipt.is_success() {
                    ok += 1;
                }
            }
            let mut summary = Vec::with_capacity(8);
            summary.extend_from_slice(&ok.to_le_bytes());
            summary.extend_from_slice(&total.to_le_bytes());
            (TxReceipt::Success(summary), gas)
        }
        Transaction::Create {
            sender,
            code,
            gas_limit,
        } => {
            let gas = INTRINSIC_GAS + 200 * code.len() as u64;
            if gas > gas_limit {
                return (TxReceipt::Failed("out of gas".into()), gas_limit);
            }
            let nonce = next_nonce(sink, &sender);
            let addr = Address::for_contract(&sender, nonce);
            sink.insert(code_key(&addr), code);
            (TxReceipt::Success(addr.0.to_vec()), gas)
        }
        Transaction::Call {
            sender,
            to,
            data,
            gas_limit,
        } => {
            let Some(code) = sink.state.get(&code_key(&to)).map(<[u8]>::to_vec) else {
                return (TxReceipt::Failed("no contract".into()), INTRINSIC_GAS);
            };
            if gas_limit < INTRINSIC_GAS {
                return (TxReceipt::Failed("out of gas".into()), gas_limit);
            }
            let env = ExecEnv {
                address: to.to_word(),
                caller: sender.to_word(),
                call_value: U256::ZERO,
                block_number: seq.get(),
                timestamp: seq.get(), // deterministic stand-in
            };
            let mut storage = JournaledStorage {
                state: sink.state,
                address: to,
                journal: Vec::new(),
            };
            match execute(&code, &data, &env, &mut storage, gas_limit - INTRINSIC_GAS) {
                Ok(outcome) => {
                    // Apply journal in order (last write wins).
                    let journal = storage.journal;
                    for (slot, value) in journal {
                        let key = slot_key(&to, &slot);
                        if value.is_zero() {
                            sink.remove(&key);
                        } else {
                            sink.insert(key, value.to_be_bytes().to_vec());
                        }
                    }
                    (
                        TxReceipt::Success(outcome.output),
                        INTRINSIC_GAS + outcome.gas_used,
                    )
                }
                // Post-Byzantium semantics: REVERT refunds unused gas;
                // the journal is simply dropped. We charge a calibrated
                // dispatch+checks cost since the interpreter does not
                // report gas consumed at the revert point.
                Err(VmError::Reverted(_)) => {
                    (TxReceipt::Failed("reverted".into()), INTRINSIC_GAS + 5_000)
                }
                // Hard faults (out of gas, invalid jump/opcode) burn
                // the full limit, as in the EVM.
                Err(e) => (TxReceipt::Failed(e.to_string()), gas_limit),
            }
        }
    }
}

/// The planning half of [`EvmService`] for the parallel execution
/// pipeline: a `Call` declares one per-account write token (the VM subset
/// has no cross-contract opcodes, so a call touches only `to`'s code and
/// slots), while `Create` falls back to whole-state — the new code key
/// depends on the sender's live nonce, so its footprint is
/// state-dependent.
pub struct EvmPlanner {
    cost: EvmCostModel,
    seq: SeqNum,
}

impl EvmPlanner {
    /// Creates a planner for the block at `seq` mirroring `cost`'s
    /// charging rules.
    pub fn new(cost: EvmCostModel, seq: SeqNum) -> Self {
        EvmPlanner { cost, seq }
    }

    fn declare(tx: &Transaction, set: &mut ReadWriteSet) {
        match tx {
            Transaction::Create { .. } => set.union(&ReadWriteSet::whole_state()),
            Transaction::Call { to, .. } => set.union(&ReadWriteSet::write(account_token(to))),
            Transaction::Batch(txs) => {
                for tx in txs {
                    EvmPlanner::declare(tx, set);
                }
            }
        }
    }
}

impl OpExecutor for EvmPlanner {
    fn rw_set(&self, op: &[u8]) -> ReadWriteSet {
        let mut set = ReadWriteSet::empty();
        if let Ok(tx) = Transaction::from_wire_bytes(op) {
            EvmPlanner::declare(&tx, &mut set);
        }
        set
    }

    fn plan_op(&self, state: &AuthKv, op: &[u8]) -> PlannedOp {
        let mut scratch = state.clone();
        let mut writes = Vec::new();
        let (receipt, gas) = {
            let mut sink = TxSink {
                state: &mut scratch,
                writes: Some(&mut writes),
            };
            apply_tx(&mut sink, self.seq, op)
        };
        PlannedOp {
            result: receipt.to_bytes(),
            writes,
            cost_ns: self.cost.per_tx_ns + self.cost.per_gas_ns * gas,
            aux: gas,
        }
    }
}

impl Service for EvmService {
    fn execute_block(&mut self, seq: SeqNum, ops: &[RawOp]) -> BlockExecution {
        assert_eq!(
            seq,
            self.last_executed.next(),
            "blocks execute in sequence order"
        );
        let mut results = Vec::with_capacity(ops.len());
        let mut cpu = self.cost.commit_ns;
        for op in ops {
            let mut sink = TxSink {
                state: &mut self.state,
                writes: None,
            };
            let (receipt, gas) = apply_tx(&mut sink, seq, op);
            self.total_gas += gas;
            cpu += self.cost.per_tx_ns + self.cost.per_gas_ns * gas;
            results.push(receipt.to_bytes());
        }
        self.finish(seq, ops, results, cpu)
    }

    fn execute_block_parallel(
        &mut self,
        seq: SeqNum,
        ops: &[RawOp],
        pool: &WavePool,
    ) -> BlockExecution {
        if pool.threads() <= 1 {
            return self.execute_block(seq, ops);
        }
        assert_eq!(
            seq,
            self.last_executed.next(),
            "blocks execute in sequence order"
        );
        let planner: std::sync::Arc<dyn OpExecutor> =
            std::sync::Arc::new(EvmPlanner::new(self.cost.clone(), seq));
        let block = execute_ops_parallel(&mut self.state, ops, &planner, pool);
        self.total_gas += block.aux;
        self.finish(seq, ops, block.results, self.cost.commit_ns + block.cost_ns)
    }

    fn state_digest(&self) -> Digest {
        self.last_digest
    }

    fn last_executed(&self) -> SeqNum {
        self.last_executed
    }

    fn snapshot(&self) -> AuthKv {
        self.state.clone()
    }

    fn install(&mut self, state: AuthKv, seq: SeqNum, digest: Digest) {
        self.install_snapshot(state, seq, digest);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::contracts::{
        counter_code, token_balance_calldata, token_code, token_mint_calldata,
        token_transfer_calldata,
    };
    use sbft_crypto::SplitMix64;

    fn random_call(rng: &mut SplitMix64, targets: &[Address]) -> Transaction {
        let to = targets[(rng.next_u64() as usize) % targets.len()];
        let sender = Address::account(rng.next_u64() % 6);
        let word = U256::from(rng.next_u64() % 8);
        let data = match rng.next_u64() % 4 {
            0 => token_mint_calldata(&word, &U256::from(1 + rng.next_u64() % 100)),
            1 => token_transfer_calldata(&word, &U256::from(rng.next_u64() % 50)),
            2 => token_balance_calldata(&word),
            _ => Vec::new(),
        };
        // Occasionally starve the call of gas.
        let gas_limit = if rng.next_u64() % 16 == 0 {
            1_000
        } else {
            1_000_000
        };
        Transaction::Call {
            sender,
            to,
            data,
            gas_limit,
        }
    }

    fn random_op(rng: &mut SplitMix64, targets: &[Address]) -> Vec<u8> {
        match rng.next_u64() % 10 {
            // Whole-state fallback path.
            0 => Transaction::Create {
                sender: Address::account(rng.next_u64() % 6),
                code: counter_code(),
                gas_limit: 10_000_000,
            }
            .to_wire_bytes(),
            1 => {
                let len = 1 + (rng.next_u64() % 4) as usize;
                Transaction::Batch((0..len).map(|_| random_call(rng, targets)).collect())
                    .to_wire_bytes()
            }
            // Malformed bytes: must stay a deterministic failure.
            2 => vec![0xff, rng.next_u64() as u8],
            _ => random_call(rng, targets).to_wire_bytes(),
        }
    }

    #[test]
    fn parallel_execution_is_byte_identical_to_serial() {
        let mut rng = SplitMix64::new(0x0e7b_0001);
        let deployer = Address::account(0);
        let genesis: Vec<RawOp> = (0..5)
            .map(|i| {
                Transaction::Create {
                    sender: deployer,
                    code: if i < 4 { token_code() } else { counter_code() },
                    gas_limit: 10_000_000,
                }
                .to_wire_bytes()
            })
            .collect();
        // Contract addresses are nonce-derived, so they are known up front.
        let mut targets: Vec<Address> = (0..5)
            .map(|nonce| Address::for_contract(&deployer, nonce))
            .collect();
        targets.push(Address::account(99)); // no contract deployed here

        let mut serial = EvmService::new();
        let pools = [WavePool::new(2), WavePool::new(4)];
        let mut parallel: Vec<EvmService> = pools.iter().map(|_| EvmService::new()).collect();
        let expected = serial.execute_block(SeqNum::new(1), &genesis);
        for (svc, pool) in parallel.iter_mut().zip(&pools) {
            let got = svc.execute_block_parallel(SeqNum::new(1), &genesis, pool);
            assert_eq!(got, expected, "genesis block diverged");
        }
        for block in 2..=12u64 {
            let op_count = 1 + (rng.next_u64() % 24) as usize;
            let ops: Vec<RawOp> = (0..op_count)
                .map(|_| random_op(&mut rng, &targets))
                .collect();
            let seq = SeqNum::new(block);
            let expected = serial.execute_block(seq, &ops);
            for (svc, pool) in parallel.iter_mut().zip(&pools) {
                let got = svc.execute_block_parallel(seq, &ops, pool);
                assert_eq!(got, expected, "block {block} diverged from serial");
                assert_eq!(svc.state().root(), serial.state().root());
                assert_eq!(svc.total_gas, serial.total_gas);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::{
        counter_code, token_balance_calldata, token_code, token_mint_calldata,
        token_transfer_calldata,
    };
    use sbft_statedb::verify_execution;

    fn deploy(svc: &mut EvmService, seq: u64, code: Vec<u8>) -> Address {
        let tx = Transaction::Create {
            sender: Address::account(0),
            code,
            gas_limit: 10_000_000,
        };
        let exec = svc.execute_block(SeqNum::new(seq), &[tx.to_wire_bytes()]);
        let receipt = TxReceipt::from_bytes(&exec.results[0]).unwrap();
        match receipt {
            TxReceipt::Success(bytes) => {
                let mut a = [0u8; 20];
                a.copy_from_slice(&bytes);
                Address(a)
            }
            TxReceipt::Failed(e) => panic!("deploy failed: {e}"),
        }
    }

    fn call(
        svc: &mut EvmService,
        seq: u64,
        sender: Address,
        to: Address,
        data: Vec<u8>,
    ) -> TxReceipt {
        let tx = Transaction::Call {
            sender,
            to,
            data,
            gas_limit: 10_000_000,
        };
        let exec = svc.execute_block(SeqNum::new(seq), &[tx.to_wire_bytes()]);
        TxReceipt::from_bytes(&exec.results[0]).unwrap()
    }

    #[test]
    fn transaction_codec_round_trip() {
        let txs = [
            Transaction::Create {
                sender: Address::account(1),
                code: vec![0x60, 0x01],
                gas_limit: 1_000_000,
            },
            Transaction::Call {
                sender: Address::account(2),
                to: Address::account(3),
                data: vec![1, 2, 3],
                gas_limit: 50_000,
            },
        ];
        for tx in txs {
            assert_eq!(
                Transaction::from_wire_bytes(&tx.to_wire_bytes()).unwrap(),
                tx
            );
        }
    }

    #[test]
    fn deploy_and_call_counter() {
        let mut svc = EvmService::new();
        let counter = deploy(&mut svc, 1, counter_code());
        for seq in 2..=4u64 {
            let receipt = call(&mut svc, seq, Address::account(1), counter, vec![]);
            assert!(receipt.is_success());
        }
        assert_eq!(svc.storage_at(&counter, &U256::ZERO), U256::from(3u64));
    }

    #[test]
    fn token_end_to_end() {
        let mut svc = EvmService::new();
        let token = deploy(&mut svc, 1, token_code());
        let alice = Address::account(10);
        let bob = Address::account(11);
        // Mint 100 to alice.
        let r = call(
            &mut svc,
            2,
            Address::account(0),
            token,
            token_mint_calldata(&alice.to_word(), &U256::from(100u64)),
        );
        assert!(r.is_success());
        // Alice sends 40 to Bob.
        let r = call(
            &mut svc,
            3,
            alice,
            token,
            token_transfer_calldata(&bob.to_word(), &U256::from(40u64)),
        );
        assert!(r.is_success());
        // Balances via query calls.
        let r = call(
            &mut svc,
            4,
            bob,
            token,
            token_balance_calldata(&alice.to_word()),
        );
        match r {
            TxReceipt::Success(out) => assert_eq!(U256::from_be_slice(&out), U256::from(60u64)),
            TxReceipt::Failed(e) => panic!("{e}"),
        }
        assert_eq!(svc.storage_at(&token, &bob.to_word()), U256::from(40u64));
    }

    #[test]
    fn reverted_transfer_leaves_no_trace() {
        let mut svc = EvmService::new();
        let token = deploy(&mut svc, 1, token_code());
        let root_before = svc.state().root();
        let broke = Address::account(99);
        let r = call(
            &mut svc,
            2,
            broke,
            token,
            token_transfer_calldata(&U256::from(1u64), &U256::from(5u64)),
        );
        assert!(!r.is_success());
        // Storage intact (only nonce/code keys unchanged; no slot writes).
        assert_eq!(svc.state().root(), root_before);
    }

    #[test]
    fn deterministic_across_replicas() {
        let trace: Vec<Vec<u8>> = vec![
            Transaction::Create {
                sender: Address::account(0),
                code: token_code(),
                gas_limit: 10_000_000,
            }
            .to_wire_bytes(),
            Transaction::Call {
                sender: Address::account(0),
                to: Address::for_contract(&Address::account(0), 0),
                data: token_mint_calldata(&U256::from(5u64), &U256::from(9u64)),
                gas_limit: 1_000_000,
            }
            .to_wire_bytes(),
        ];
        let mut a = EvmService::new();
        let mut b = EvmService::new();
        for svc in [&mut a, &mut b] {
            svc.execute_block(SeqNum::new(1), &trace);
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.state().root(), b.state().root());
    }

    #[test]
    fn call_to_missing_contract_fails() {
        let mut svc = EvmService::new();
        let r = call(
            &mut svc,
            1,
            Address::account(0),
            Address::account(42),
            vec![],
        );
        assert_eq!(r, TxReceipt::Failed("no contract".into()));
    }

    #[test]
    fn execution_proofs_verify() {
        let mut svc = EvmService::new();
        let token = deploy(&mut svc, 1, token_code());
        let op = Transaction::Call {
            sender: Address::account(0),
            to: token,
            data: token_mint_calldata(&U256::from(1u64), &U256::from(2u64)),
            gas_limit: 1_000_000,
        }
        .to_wire_bytes();
        let exec = svc.execute_block(SeqNum::new(2), &[op.clone()]);
        let proof = exec.proof(0).unwrap();
        let val = &exec.results[0];
        assert!(verify_execution(
            &exec.state_digest,
            &op,
            val,
            SeqNum::new(2),
            0,
            &proof
        ));
    }

    #[test]
    fn created_addresses_differ_by_nonce() {
        let mut svc = EvmService::new();
        let a = deploy(&mut svc, 1, counter_code());
        let b = deploy(&mut svc, 2, counter_code());
        assert_ne!(a, b);
        assert!(svc.code_at(&a).is_some());
        assert!(svc.code_at(&b).is_some());
    }

    #[test]
    fn gas_is_accounted() {
        let mut svc = EvmService::new();
        let token = deploy(&mut svc, 1, token_code());
        let before = svc.total_gas;
        call(
            &mut svc,
            2,
            Address::account(0),
            token,
            token_mint_calldata(&U256::from(1u64), &U256::from(2u64)),
        );
        // A mint costs at least intrinsic + one SSTORE.
        assert!(svc.total_gas - before > INTRINSIC_GAS + 5_000);
    }
}
