"""Nominative signatures with escrowed verification.

A signer and a nominee jointly produce a signature only the nominee can
verify or prove anything about; the nominee can later issue a public
verification token that anyone (here, a simulated escrow contract) can
check with a fixed number of pairings. The package bundles the signature
scheme over BN254, interactive confirm/disavow proofs, recoverable ECDSA
for transaction authorization, the escrow state machine, and a
precompile gas-cost model.
"""

from .algebra import (
    AlgebraError,
    Backend,
    GroupElem,
    MalformedEncoding,
    MockBackend,
    NotInSubgroup,
    NotOnCurve,
    RealBackend,
    get_backend,
)
from .contract import (
    ContractError,
    ContractState,
    ExecutionReceipt,
    InsufficientAdvance,
    InsufficientFunds,
    InvalidAmounts,
    MalformedTransaction,
    NonceReplayed,
    Phase,
    TransactionRecord,
    TriggerSubmission,
    UnknownAddress,
    WalletLedger,
    WrongPhase,
    deploy,
    pay_advance,
    store_signature,
    submit_trigger,
)
from .envelopes import EnvelopeError, make_envelope, parse_envelope, read_envelope, write_envelope
from .gasmodel import (
    DEFAULT_GAS_PRICE_ETH,
    CostTable,
    GasModelError,
    GasReport,
    build_report,
    meter_tkverify,
    price_pairing_call,
    ratio_vs_ecrecover,
)
from .scheme import (
    DeltaMsg,
    LengthMismatch,
    NomSignature,
    NomineePublicKey,
    NomineeSecretKey,
    OpCounts,
    PublicParams,
    SchemeError,
    SignerPublicKey,
    SignerSecretKey,
    UnsupportedSecurityLevel,
    VerificationToken,
    convert,
    keygen_nominee,
    keygen_signer,
    receive,
    setup,
    sign,
    tk_verify,
)
from .trigger import (
    EcdsaKeyPair,
    EcdsaSignature,
    RecoveryFailed,
    TriggerError,
    address_of,
    ecdsa_keygen,
    ecdsa_recover,
    ecdsa_sign,
    verify_against_address,
)
from .zkproto import (
    AbortBadOpening,
    ConfirmStatement,
    ProtocolError,
    Transcript,
    derive_statement,
    run_confirm,
    run_disavow,
)

__version__ = "0.1.0"
