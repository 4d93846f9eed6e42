//! The smart-contract engine of the SBFT reproduction (§IV "A Smart
//! contract engine", §VIII "Blockchain smart contract implementation").
//!
//! A from-scratch EVM-subset stack machine layered on the authenticated
//! key-value store:
//!
//! - [`Opcode`] / [`execute`]: the bytecode interpreter with EVM stack
//!   semantics, gas metering, memory, storage, control flow and logs.
//! - [`assemble`] / [`disassemble`]: a small assembler so contracts are
//!   legible in tests and examples.
//! - [`counter_code`] / [`token_code`] / [`registry_code`]: standard
//!   contracts, including the ERC20-style token that powers the
//!   Ethereum-like benchmark workload.
//! - [`Transaction`] / [`EvmService`]: contract creation and invocation
//!   modeled as replicated-service operations; [`EvmService`] implements
//!   [`sbft_statedb::Service`], so the BFT engines drive it exactly like
//!   the key-value store.
//! - [`generate_eth_trace`]: the synthetic stand-in for the paper's 500k
//!   real Ethereum transactions (see the README "Substitutions" section).

mod asm;
mod contracts;
mod opcodes;
mod tx;
mod vm;
mod workload;

pub use asm::{assemble, disassemble, AsmError};
pub use contracts::{
    counter_code, registry_code, token_balance_calldata, token_code, token_mint_calldata,
    token_transfer_calldata,
};
pub use opcodes::{opcode_from_mnemonic, Opcode};
pub use tx::{Address, EvmCostModel, EvmService, Transaction, TxReceipt};
pub use vm::{
    execute, ExecEnv, ExecOutcome, LogEntry, MapStorage, Storage, VmError, MEMORY_LIMIT,
    STACK_LIMIT,
};
pub use workload::{batch_trace, generate_eth_trace, EthTraceConfig};
