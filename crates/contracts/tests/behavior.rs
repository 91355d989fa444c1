//! End-to-end behaviour tests: every entry function of every synthetic
//! contract is executed through the full EVM and its state effects
//! verified. These tests double as validation of the interpreter.

use mtpu_contracts::{addresses, erc20, helpers, Fixture};
use mtpu_evm::state::State;
use mtpu_evm::{execute_transaction, trace_transaction, BlockHeader, NoopTracer, Receipt};
use mtpu_primitives::map::FastSet;
use mtpu_primitives::{Address, U256};

fn run(fx: &mut Fixture, state: &mut State, user: u64, c: &str, f: &str, args: &[U256]) -> Receipt {
    let tx = fx.call_tx(user, c, f, args);
    execute_transaction(state, &BlockHeader::default(), &tx, &mut NoopTracer)
        .expect("valid transaction")
}

fn balance_of(state: &State, token: Address, user: Address) -> U256 {
    state.storage(
        token,
        helpers::mapping_slot(user.to_u256(), erc20::SLOT_BALANCES),
    )
}

fn word(r: &Receipt) -> U256 {
    U256::from_be_slice(&r.output)
}

#[test]
fn tether_transfer_moves_balance_and_charges_fee() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let (alice, bob) = (Fixture::user_address(1), Fixture::user_address(2));
    let before_alice = balance_of(&st, addresses::tether(), alice);
    let before_bob = balance_of(&st, addresses::tether(), bob);
    let owner = Fixture::user_address(0);
    let before_owner = balance_of(&st, addresses::tether(), owner);

    let amount = 100_000u64;
    let r = run(
        &mut fx,
        &mut st,
        1,
        "Tether USD",
        "transfer",
        &[bob.to_u256(), U256::from(amount)],
    );
    assert!(r.success, "transfer failed");
    assert_eq!(word(&r), U256::ONE);
    assert_eq!(r.logs.len(), 1, "Transfer event emitted");

    // fee = min(100000 * 10 / 10000, 50) = min(100, 50) = 50.
    let fee = 50u64;
    assert_eq!(
        balance_of(&st, addresses::tether(), alice),
        before_alice - U256::from(amount)
    );
    assert_eq!(
        balance_of(&st, addresses::tether(), bob),
        before_bob + U256::from(amount - fee)
    );
    assert_eq!(
        balance_of(&st, addresses::tether(), owner),
        before_owner + U256::from(fee)
    );
}

#[test]
fn tether_transfer_insufficient_balance_reverts() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let bob = Fixture::user_address(2);
    let too_much = U256::from(u64::MAX);
    let r = run(
        &mut fx,
        &mut st,
        1,
        "Tether USD",
        "transfer",
        &[bob.to_u256(), too_much],
    );
    assert!(!r.success);
    assert_eq!(
        balance_of(&st, addresses::tether(), bob),
        U256::from(1_000_000_000u64)
    );
}

#[test]
fn tether_approve_and_transfer_from() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let (alice, bob, carol) = (
        Fixture::user_address(1),
        Fixture::user_address(2),
        Fixture::user_address(3),
    );

    let r = run(
        &mut fx,
        &mut st,
        1,
        "Tether USD",
        "approve",
        &[bob.to_u256(), U256::from(500u64)],
    );
    assert!(r.success);
    let r = run(
        &mut fx,
        &mut st,
        1,
        "Tether USD",
        "allowance",
        &[alice.to_u256(), bob.to_u256()],
    );
    assert_eq!(word(&r), U256::from(500u64));

    // Bob pulls 200 from Alice to Carol.
    let before_carol = balance_of(&st, addresses::tether(), carol);
    let r = run(
        &mut fx,
        &mut st,
        2,
        "Tether USD",
        "transferFrom",
        &[alice.to_u256(), carol.to_u256(), U256::from(200u64)],
    );
    assert!(r.success);
    // fee = min(200*10/10000, 50) = 0 (integer division).
    assert_eq!(
        balance_of(&st, addresses::tether(), carol),
        before_carol + U256::from(200u64)
    );
    let r = run(
        &mut fx,
        &mut st,
        4,
        "Tether USD",
        "allowance",
        &[alice.to_u256(), bob.to_u256()],
    );
    assert_eq!(word(&r), U256::from(300u64));

    // Exceeding the remaining allowance reverts.
    let r = run(
        &mut fx,
        &mut st,
        2,
        "Tether USD",
        "transferFrom",
        &[alice.to_u256(), carol.to_u256(), U256::from(301u64)],
    );
    assert!(!r.success);
}

#[test]
fn tether_set_params_owner_only() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    // User 5 is not the owner.
    let r = run(
        &mut fx,
        &mut st,
        5,
        "Tether USD",
        "setParams",
        &[U256::from(1u64), U256::ONE],
    );
    assert!(!r.success);
    // User 0 is.
    let r = run(
        &mut fx,
        &mut st,
        0,
        "Tether USD",
        "setParams",
        &[U256::from(1u64), U256::ONE],
    );
    assert!(r.success);
    assert_eq!(
        st.storage(addresses::tether(), U256::from(erc20::SLOT_FEE_RATE)),
        U256::ONE
    );
}

#[test]
fn tether_views() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let r = run(&mut fx, &mut st, 1, "Tether USD", "totalSupply", &[]);
    let expected = U256::from(mtpu_contracts::fixture::SEED_BALANCE)
        * U256::from(mtpu_contracts::fixture::USER_COUNT);
    assert_eq!(word(&r), expected);
    let me = Fixture::user_address(7);
    let r = run(
        &mut fx,
        &mut st,
        1,
        "Tether USD",
        "balanceOf",
        &[me.to_u256()],
    );
    assert_eq!(word(&r), U256::from(1_000_000_000u64));
}

#[test]
fn dai_mint_burn_requires_ward() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let bob = Fixture::user_address(2);
    // Non-ward cannot mint.
    let r = run(
        &mut fx,
        &mut st,
        3,
        "Dai",
        "mint",
        &[bob.to_u256(), U256::from(10u64)],
    );
    assert!(!r.success);
    // Admin (user 0) can.
    let supply_before = st.storage(addresses::dai(), U256::ZERO);
    let r = run(
        &mut fx,
        &mut st,
        0,
        "Dai",
        "mint",
        &[bob.to_u256(), U256::from(10u64)],
    );
    assert!(r.success);
    assert_eq!(
        balance_of(&st, addresses::dai(), bob),
        U256::from(1_000_000_010u64)
    );
    assert_eq!(
        st.storage(addresses::dai(), U256::ZERO),
        supply_before + U256::from(10u64)
    );
    let r = run(
        &mut fx,
        &mut st,
        0,
        "Dai",
        "burn",
        &[bob.to_u256(), U256::from(4u64)],
    );
    assert!(r.success);
    assert_eq!(
        balance_of(&st, addresses::dai(), bob),
        U256::from(1_000_000_006u64)
    );
}

#[test]
fn link_transfer_and_call_notifies_receiver() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let sink = addresses::receiver();
    let r = run(
        &mut fx,
        &mut st,
        1,
        "LinkToken",
        "transferAndCall",
        &[sink.to_u256(), U256::from(77u64), U256::from(0xabcdu64)],
    );
    assert!(r.success, "transferAndCall failed");
    assert_eq!(
        balance_of(&st, addresses::link_token(), sink),
        U256::from(77u64)
    );
    // The sink counted one notification.
    assert_eq!(st.storage(sink, U256::ZERO), U256::ONE);
}

#[test]
fn fiat_proxy_delegates_to_implementation() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let (alice, bob) = (Fixture::user_address(1), Fixture::user_address(2));
    // Balance reads go through the proxy and hit *proxy* storage.
    let r = run(
        &mut fx,
        &mut st,
        1,
        "FiatTokenProxy",
        "balanceOf",
        &[alice.to_u256()],
    );
    assert!(r.success);
    assert_eq!(word(&r), U256::from(1_000_000_000u64));
    // Transfer through the proxy.
    let r = run(
        &mut fx,
        &mut st,
        1,
        "FiatTokenProxy",
        "transfer",
        &[bob.to_u256(), U256::from(123u64)],
    );
    assert!(r.success);
    assert_eq!(
        balance_of(&st, addresses::fiat_proxy(), bob),
        U256::from(1_000_000_123u64)
    );
    // Implementation storage untouched.
    assert_eq!(balance_of(&st, addresses::fiat_impl(), bob), U256::ZERO);
    // The delegatecall produced a nested frame in the trace.
    let tx = fx.call_tx(1, "FiatTokenProxy", "transfer", &[bob.to_u256(), U256::ONE]);
    let (_, trace) = trace_transaction(&mut st, &BlockHeader::default(), &tx).unwrap();
    assert_eq!(trace.frames.len(), 2);
    assert_eq!(trace.frames[1].code_address, addresses::fiat_impl());
    assert_eq!(trace.frames[1].storage_address, addresses::fiat_proxy());
}

#[test]
fn fiat_proxy_bubbles_reverts() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let bob = Fixture::user_address(2);
    let r = run(
        &mut fx,
        &mut st,
        1,
        "FiatTokenProxy",
        "transfer",
        &[bob.to_u256(), U256::from(u64::MAX)],
    );
    assert!(
        !r.success,
        "insufficient balance must bubble out of the proxy"
    );
}

#[test]
fn router_swap_conserves_value() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let (t0, t1) = (addresses::token(0), addresses::token(1));
    let reserve_before = st.storage(
        addresses::uniswap_v2_router(),
        mtpu_contracts::mapping_slot(t0.to_u256(), 0),
    );

    let amount_in = 1_000_000u64;
    let r = run(
        &mut fx,
        &mut st,
        1,
        "UniswapV2Router02",
        "swapExactTokens",
        &[
            t0.to_u256(),
            t1.to_u256(),
            U256::from(amount_in),
            U256::ZERO,
        ],
    );
    assert!(r.success, "swap failed");
    let out = word(&r);
    // Constant product with fee: out = rOut*inFee/(rIn+inFee).
    let in_fee = amount_in * 997 / 1000;
    let expect = 10_000_000_000u128 * in_fee as u128 / (10_000_000_000u128 + in_fee as u128);
    assert_eq!(out, U256::from(expect as u64));
    // Reserves updated.
    let reserve_after = st.storage(
        addresses::uniswap_v2_router(),
        mtpu_contracts::mapping_slot(t0.to_u256(), 0),
    );
    assert_eq!(reserve_after, reserve_before + U256::from(amount_in));
    // User ledger moved.
    let r = run(
        &mut fx,
        &mut st,
        1,
        "UniswapV2Router02",
        "balanceOf",
        &[Fixture::user_address(1).to_u256(), t1.to_u256()],
    );
    assert_eq!(word(&r), U256::from(1_000_000_000u64) + out);
}

#[test]
fn router_swap_respects_min_out() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let (t0, t1) = (addresses::token(0), addresses::token(1));
    let r = run(
        &mut fx,
        &mut st,
        1,
        "UniswapV2Router02",
        "swapExactTokens",
        &[
            t0.to_u256(),
            t1.to_u256(),
            U256::from(100u64),
            U256::from(u64::MAX),
        ],
    );
    assert!(!r.success, "minOut violation must revert");
}

#[test]
fn router_two_hop_and_liquidity() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let (t0, t1, t2) = (
        addresses::token(0),
        addresses::token(1),
        addresses::token(2),
    );
    let r = run(
        &mut fx,
        &mut st,
        1,
        "UniswapV2Router02",
        "swapTwoHop",
        &[
            t0.to_u256(),
            t1.to_u256(),
            t2.to_u256(),
            U256::from(5000u64),
            U256::ZERO,
        ],
    );
    assert!(r.success);
    assert!(word(&r) > U256::ZERO);
    let r = run(
        &mut fx,
        &mut st,
        1,
        "UniswapV2Router02",
        "addLiquidity",
        &[t0.to_u256(), U256::from(1000u64)],
    );
    assert!(r.success);
}

#[test]
fn swap_router_lacks_two_hop() {
    let fx = Fixture::new();
    assert!(fx
        .spec("SwapRouter")
        .functions
        .iter()
        .all(|f| f.name != "swapTwoHop"));
    assert!(fx
        .spec("UniswapV2Router02")
        .functions
        .iter()
        .any(|f| f.name == "swapTwoHop"));
}

#[test]
fn opensea_atomic_match_settles_and_finalizes() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let maker = Fixture::user_address(3);
    let token = addresses::token(1);
    let args = [
        maker.to_u256(),
        token.to_u256(),
        U256::from(42u64),     // tokenId
        U256::from(10_000u64), // price
        U256::from(7u64),      // salt
    ];
    let r = run(&mut fx, &mut st, 1, "OpenSea", "atomicMatch", &args);
    assert!(r.success, "atomicMatch failed");
    // Maker got price - 2.5% fee.
    let maker_ledger = st.storage(
        addresses::opensea(),
        mtpu_contracts::nested_mapping_slot(maker.to_u256(), token.to_u256(), 1),
    );
    assert_eq!(maker_ledger, U256::from(1_000_000_000u64 + 10_000 - 250));
    // Replay of the same order reverts (finalized).
    let r = run(&mut fx, &mut st, 1, "OpenSea", "atomicMatch", &args);
    assert!(!r.success, "order replay must fail");
}

#[test]
fn opensea_cancel_blocks_match() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let maker = Fixture::user_address(3);
    let args = [
        maker.to_u256(),
        addresses::token(1).to_u256(),
        U256::from(1u64),
        U256::from(500u64),
        U256::from(1u64),
    ];
    // Only the maker may cancel.
    let r = run(&mut fx, &mut st, 1, "OpenSea", "cancelOrder", &args);
    assert!(!r.success);
    let r = run(&mut fx, &mut st, 3, "OpenSea", "cancelOrder", &args);
    assert!(r.success);
    let r = run(&mut fx, &mut st, 1, "OpenSea", "atomicMatch", &args);
    assert!(!r.success, "cancelled order cannot match");
}

#[test]
fn gateway_deposit_withdraw_flow() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let token = addresses::token(0);
    let user = Fixture::user_address(1);
    let count_before = st.storage(addresses::gateway(), U256::ONE);

    let r = run(
        &mut fx,
        &mut st,
        1,
        "MainchainGatewayProxy",
        "deposit",
        &[token.to_u256(), U256::from(999u64)],
    );
    assert!(r.success);
    assert_eq!(
        st.storage(addresses::gateway(), U256::ONE),
        count_before + U256::ONE
    );

    let r = run(
        &mut fx,
        &mut st,
        1,
        "MainchainGatewayProxy",
        "depositOf",
        &[user.to_u256(), token.to_u256()],
    );
    assert_eq!(word(&r), U256::from(1_000_000_999u64));

    // Withdraw with a fresh id.
    let r = run(
        &mut fx,
        &mut st,
        1,
        "MainchainGatewayProxy",
        "withdraw",
        &[U256::from(555u64), token.to_u256(), U256::from(100u64)],
    );
    assert!(r.success);
    // Same withdrawal id replays are rejected.
    let r = run(
        &mut fx,
        &mut st,
        1,
        "MainchainGatewayProxy",
        "withdraw",
        &[U256::from(555u64), token.to_u256(), U256::from(100u64)],
    );
    assert!(!r.success);
}

#[test]
fn gateway_enforces_limits_and_pause() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let token = addresses::token(0);
    // Over the per-tx limit (1_000_000).
    let r = run(
        &mut fx,
        &mut st,
        1,
        "MainchainGatewayProxy",
        "deposit",
        &[token.to_u256(), U256::from(2_000_000u64)],
    );
    assert!(!r.success);
    // Zero amount.
    let r = run(
        &mut fx,
        &mut st,
        1,
        "MainchainGatewayProxy",
        "deposit",
        &[token.to_u256(), U256::ZERO],
    );
    assert!(!r.success);
    // Pause (admin = user 0), then deposits fail, unpause restores.
    let r = run(&mut fx, &mut st, 0, "MainchainGatewayProxy", "pause", &[]);
    assert!(r.success);
    let r = run(
        &mut fx,
        &mut st,
        1,
        "MainchainGatewayProxy",
        "deposit",
        &[token.to_u256(), U256::from(10u64)],
    );
    assert!(!r.success);
    let r = run(&mut fx, &mut st, 0, "MainchainGatewayProxy", "unpause", &[]);
    assert!(r.success);
    let r = run(
        &mut fx,
        &mut st,
        1,
        "MainchainGatewayProxy",
        "deposit",
        &[token.to_u256(), U256::from(10u64)],
    );
    assert!(r.success);
    // Non-admin cannot pause.
    let r = run(&mut fx, &mut st, 1, "MainchainGatewayProxy", "pause", &[]);
    assert!(!r.success);
}

#[test]
fn weth_deposit_withdraw_transfer() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let alice = Fixture::user_address(1);
    // deposit() is payable: build the tx manually with value.
    let mut tx = fx.call_tx(1, "WETH9", "deposit", &[]);
    tx.value = U256::from(5_000u64);
    let r = execute_transaction(&mut st, &BlockHeader::default(), &tx, &mut NoopTracer).unwrap();
    assert!(r.success);
    assert_eq!(
        balance_of(&st, addresses::weth9(), alice),
        U256::from(1_000_005_000u64)
    );
    // withdraw sends ether back via CALL.
    let eth_before = st.balance(alice);
    let r = run(
        &mut fx,
        &mut st,
        1,
        "WETH9",
        "withdraw",
        &[U256::from(3_000u64)],
    );
    assert!(r.success, "withdraw failed");
    // Alice nets the 3000 wei minus the gas fee (gas price is 1 wei).
    assert_eq!(
        st.balance(alice),
        eth_before + U256::from(3_000u64) - U256::from(r.gas_used),
        "ether returned"
    );
    assert_eq!(
        balance_of(&st, addresses::weth9(), alice),
        U256::from(1_000_002_000u64)
    );
    // plain transfer
    let bob = Fixture::user_address(2);
    let r = run(
        &mut fx,
        &mut st,
        1,
        "WETH9",
        "transfer",
        &[bob.to_u256(), U256::from(7u64)],
    );
    assert!(r.success);
    assert_eq!(
        balance_of(&st, addresses::weth9(), bob),
        U256::from(1_000_000_007u64)
    );
}

#[test]
fn ballot_vote_once_and_winner() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let r = run(&mut fx, &mut st, 1, "Ballot", "vote", &[U256::from(3u64)]);
    assert!(r.success);
    // Double vote rejected.
    let r = run(&mut fx, &mut st, 1, "Ballot", "vote", &[U256::from(4u64)]);
    assert!(!r.success);
    // Out-of-range proposal rejected.
    let r = run(
        &mut fx,
        &mut st,
        2,
        "Ballot",
        "vote",
        &[U256::from(9999u64)],
    );
    assert!(!r.success);
    for (u, p) in [(2u64, 3u64), (3, 5), (4, 5), (5, 5)] {
        let r = run(&mut fx, &mut st, u, "Ballot", "vote", &[U256::from(p)]);
        assert!(r.success);
    }
    let r = run(&mut fx, &mut st, 6, "Ballot", "winningProposal", &[]);
    assert_eq!(word(&r), U256::from(5u64));
}

#[test]
fn cryptocat_auction_lifecycle() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let cat = U256::from(1u64); // owned by user 1
                                // Only the owner can auction.
    let r = run(
        &mut fx,
        &mut st,
        2,
        "CryptoCat",
        "createSaleAuction",
        &[
            cat,
            U256::from(1000u64),
            U256::from(100u64),
            U256::from(3600u64),
        ],
    );
    assert!(!r.success);
    let r = run(
        &mut fx,
        &mut st,
        1,
        "CryptoCat",
        "createSaleAuction",
        &[
            cat,
            U256::from(1000u64),
            U256::from(100u64),
            U256::from(3600u64),
        ],
    );
    assert!(r.success);
    // Someone bids; ownership moves.
    let r = run(&mut fx, &mut st, 9, "CryptoCat", "bid", &[cat]);
    assert!(r.success, "bid failed");
    let r = run(&mut fx, &mut st, 3, "CryptoCat", "ownerOf", &[cat]);
    assert_eq!(word(&r), Fixture::user_address(9).to_u256());
    // Auction cleared: bidding again fails.
    let r = run(&mut fx, &mut st, 4, "CryptoCat", "bid", &[cat]);
    assert!(!r.success);
}

#[test]
fn counter_increments() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    for _ in 0..3 {
        let r = run(&mut fx, &mut st, 1, "Counter", "increment", &[]);
        assert!(r.success);
    }
    let r = run(&mut fx, &mut st, 1, "Counter", "add", &[U256::from(10u64)]);
    assert!(r.success);
    let r = run(&mut fx, &mut st, 1, "Counter", "get", &[]);
    assert_eq!(word(&r), U256::from(13u64));
}

#[test]
fn unknown_selector_hits_fallback() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let tx = mtpu_evm::Transaction::call(
        Fixture::user_address(1),
        addresses::tether(),
        vec![0xde, 0xad, 0xbe, 0xef],
        fx.next_nonce(1),
    );
    let r = execute_transaction(&mut st, &BlockHeader::default(), &tx, &mut NoopTracer).unwrap();
    assert!(!r.success);
}

#[test]
fn all_contracts_have_nonempty_code_and_unique_addresses() {
    let fx = Fixture::new();
    let mut seen = FastSet::default();
    for spec in fx.contracts.iter().chain(fx.extras.iter()) {
        assert!(!spec.code.is_empty(), "{} has empty code", spec.name);
        assert!(seen.insert(spec.address), "{} address reused", spec.name);
        assert!(!spec.functions.is_empty());
        assert!(spec.total_weight() > 0);
    }
    assert_eq!(fx.contracts.len(), 8, "TOP8");
}

#[test]
fn weth_approve_and_transfer_from() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let (alice, bob, carol) = (
        Fixture::user_address(1),
        Fixture::user_address(2),
        Fixture::user_address(3),
    );
    let r = run(
        &mut fx,
        &mut st,
        1,
        "WETH9",
        "approve",
        &[bob.to_u256(), U256::from(100u64)],
    );
    assert!(r.success);
    let r = run(
        &mut fx,
        &mut st,
        5,
        "WETH9",
        "allowance",
        &[alice.to_u256(), bob.to_u256()],
    );
    assert_eq!(word(&r), U256::from(100u64));
    let r = run(
        &mut fx,
        &mut st,
        2,
        "WETH9",
        "transferFrom",
        &[alice.to_u256(), carol.to_u256(), U256::from(60u64)],
    );
    assert!(r.success);
    assert_eq!(
        balance_of(&st, addresses::weth9(), carol),
        U256::from(1_000_000_060u64)
    );
    // Remaining allowance is 40; pulling 41 reverts.
    let r = run(
        &mut fx,
        &mut st,
        2,
        "WETH9",
        "transferFrom",
        &[alice.to_u256(), carol.to_u256(), U256::from(41u64)],
    );
    assert!(!r.success);
}

#[test]
fn ballot_delegation() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let bob = Fixture::user_address(2);
    // Alice delegates to Bob: Alice counts as voted, Bob gains weight.
    let r = run(&mut fx, &mut st, 1, "Ballot", "delegate", &[bob.to_u256()]);
    assert!(r.success);
    let r = run(
        &mut fx,
        &mut st,
        3,
        "Ballot",
        "hasVoted",
        &[Fixture::user_address(1).to_u256()],
    );
    assert_eq!(word(&r), U256::ONE);
    // Alice cannot vote afterwards.
    let r = run(&mut fx, &mut st, 1, "Ballot", "vote", &[U256::from(1u64)]);
    assert!(!r.success);
    // Self-delegation rejected.
    let r = run(
        &mut fx,
        &mut st,
        4,
        "Ballot",
        "delegate",
        &[Fixture::user_address(4).to_u256()],
    );
    assert!(!r.success);
}

#[test]
fn cryptocat_cancel_and_transfer() {
    let mut fx = Fixture::new();
    let mut st = fx.state.clone();
    let cat = U256::from(1u64); // owned by user 1
    let r = run(
        &mut fx,
        &mut st,
        1,
        "CryptoCat",
        "createSaleAuction",
        &[
            cat,
            U256::from(100u64),
            U256::from(10u64),
            U256::from(60u64),
        ],
    );
    assert!(r.success);
    // Transfer is blocked while an auction is live.
    let bob = Fixture::user_address(2);
    let r = run(
        &mut fx,
        &mut st,
        1,
        "CryptoCat",
        "transfer",
        &[bob.to_u256(), cat],
    );
    assert!(!r.success);
    // Only the seller cancels.
    let r = run(&mut fx, &mut st, 3, "CryptoCat", "cancelAuction", &[cat]);
    assert!(!r.success);
    let r = run(&mut fx, &mut st, 1, "CryptoCat", "cancelAuction", &[cat]);
    assert!(r.success);
    // Now the direct transfer works and ownership moves.
    let r = run(
        &mut fx,
        &mut st,
        1,
        "CryptoCat",
        "transfer",
        &[bob.to_u256(), cat],
    );
    assert!(r.success);
    let r = run(&mut fx, &mut st, 4, "CryptoCat", "ownerOf", &[cat]);
    assert_eq!(word(&r), bob.to_u256());
}
