//! Smart contracts on SBFT: deploy an ERC20-style token through consensus,
//! mint and transfer, then read the replicated EVM state back from every
//! replica (§IV's layered architecture: BFT engine → authenticated KV →
//! EVM).
//!
//! Run with: `cargo run --example smart_contracts`

use sbft::core::{Cluster, ClusterConfig, VariantFlags, Workload};
use sbft::evm::{
    token_code, token_mint_calldata, token_transfer_calldata, Address, EvmService, Transaction,
    TxReceipt,
};
use sbft::sim::SimDuration;
use sbft::types::U256;
use sbft::wire::Wire;

fn main() {
    let deployer = Address::account(0);
    let token = Address::for_contract(&deployer, 0);
    let alice = Address::account(10);
    let bob = Address::account(11);

    // The client's transaction script, executed in order by consensus.
    let script = vec![
        Transaction::Create {
            sender: deployer,
            code: token_code(),
            gas_limit: 10_000_000,
        }
        .to_wire_bytes(),
        Transaction::Call {
            sender: deployer,
            to: token,
            data: token_mint_calldata(&alice.to_word(), &U256::from(1_000u64)),
            gas_limit: 1_000_000,
        }
        .to_wire_bytes(),
        Transaction::Call {
            sender: alice,
            to: token,
            data: token_transfer_calldata(&bob.to_word(), &U256::from(250u64)),
            gas_limit: 1_000_000,
        }
        .to_wire_bytes(),
    ];

    let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
    config.clients = 1;
    config.workload = Workload::Explicit(vec![script]);
    config.service_factory = Box::new(|| Box::new(EvmService::new()));

    let mut cluster = Cluster::build(config);
    cluster.run_for(SimDuration::from_secs(10));

    println!("== ERC20-style token on SBFT ==\n");
    println!("transactions committed : {}", cluster.total_completed());
    assert_eq!(cluster.total_completed(), 3, "every transaction commits");
    let receipt = TxReceipt::from_bytes(&cluster.client(0).last_result).expect("receipt");
    println!("last receipt           : {receipt:?}");
    cluster.assert_agreement();

    println!("\nreplicated token balances (read from each replica):");
    for r in 0..cluster.n {
        let service = cluster
            .replica(r)
            .service()
            .as_any()
            .downcast_ref::<EvmService>()
            .expect("evm service");
        println!(
            "  replica {r}: alice = {:>4}, bob = {:>4}, state digest = {}",
            service.storage_at(&token, &alice.to_word()),
            service.storage_at(&token, &bob.to_word()),
            cluster.replica(r).state_digest().short(),
        );
    }
}
