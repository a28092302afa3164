#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
# See also tools/check-upstream-deps.sh — the optional (network-gated)
# tier-2 run against real registry crates instead of the vendor/ stubs.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace)"
cargo test --workspace -q

# DESIGN.md's "Promises" table names the tests that check each promise, as
# `path::name`. A test renamed or deleted away must take its row with it.
echo "== every test the Promises table names exists"
listed=$(cargo test --workspace -q -- --list 2>/dev/null | sed -n 's/: test$//p')
named=$(sed -n '/^## Promises$/,/^## /p' DESIGN.md | grep -oE '`[A-Za-z0-9_/.-]+\.rs::[A-Za-z0-9_:]+`' |
    sed -E 's/`//g; s/.*:://' | sort -u)
if [[ -z "$named" ]]; then
    echo "DESIGN.md has no Promises table naming tests" >&2
    exit 1
fi
for name in $named; do
    if ! grep -qE "(^|::)${name}\$" <<<"$listed"; then
        echo "DESIGN.md Promises names a test the suite does not have: $name" >&2
        exit 1
    fi
done

# Every RPC is declared once, in a method table (EvoStore's own, and the
# Redis-substitute baseline's); a wire name quoted anywhere else under
# crates/*/src is a second, hand-written declaration. (Span names such as
# "deliver.push" are not wire names and do not match.)
echo "== RPC wire names appear only in the method tables"
for table in crates/core/src/methods.rs crates/baseline/src/redis_queries.rs; do
    names=$(grep -oE '= "[a-z]+\.[a-z_]+":' "$table" | grep -oE '"[^"]+"' || true)
    if [[ -z "$names" ]]; then
        echo "no wire names found in $table" >&2
        exit 1
    fi
    if hits=$(grep -rnF --include='*.rs' -e "$names" crates/*/src | grep -v "^$table:"); then
        echo "RPC wire name spelled outside $table:" >&2
        echo "$hits" >&2
        exit 1
    fi
done

# A caller-lane method runs its handler on the calling thread, so only a
# handler that never waits on the provider's other work may be there: the
# three catalog reads, which pin a published snapshot. The lane is declared
# by the method-table line (`, lane = Caller`); a fourth line, or a lane
# chosen by hand outside the rpc crate, would pass every test and put a
# store or retire on the client's thread.
echo "== caller lane: exactly GetMeta, LcpBatch and MatchPatternBatch"
on_lane=$(awk '
    FNR == 1 { in_test = 0; pending = 0 }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending { pending = 0; if (/\{$/) in_test = 1; else next }
    in_test && /^}/ { in_test = 0; next }
    in_test || /^[[:space:]]*\/\// { next }
    /, lane = Caller;/ { print $1 }
    FILENAME !~ /^crates\/rpc\/src\// && /Lane::Caller/ { print FILENAME ":" FNR }
' $(find crates -path '*/src/*.rs' | sort) | sort | tr '\n' ' ')
if [[ "$on_lane" != "GetMeta LcpBatch MatchPatternBatch " ]]; then
    echo "caller lane holds: ${on_lane:-nothing} (want GetMeta LcpBatch MatchPatternBatch)" >&2
    exit 1
fi

# Every counter in rpc, deliver and core is one line of a `counter_set!`
# table, which generates its export row. A `Metric::counter(` or
# `Metric::gauge(` spelled by hand is a second declaration that the
# table's merge rule and `SERIES` do not know about. The one exception is
# provider/stats.rs, which exports the two leaves whose crates (`kv`,
# `graph`) cannot name `evostore-obs`.
echo "== counters are exported only through their tables"
if hits=$(grep -rn --include='*.rs' -e 'Metric::counter(' -e 'Metric::gauge(' \
    crates/rpc/src crates/deliver/src crates/core/src |
    grep -v '^crates/core/src/provider/stats.rs:'); then
    echo "hand-written metric row outside a counter_set! table:" >&2
    echo "$hits" >&2
    exit 1
fi

# The control codec streams: derived types write and read JSON with no
# value tree between. A derive that emits `::serde::Value` again would put
# the tree back under every control message; a workspace call to
# `to_value(` / `from_value(` names a surface only the stand-in has, so
# tools/check-upstream-deps.sh could no longer build against upstream.
echo "== control codec: no value tree in the derive, no tree calls in crates/"
if hits=$(grep -n '::serde::Value' vendor/serde_derive/src/lib.rs); then
    echo "vendor/serde_derive emits value-tree code:" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(grep -rnE --include='*.rs' '\b(to_value|from_value)\(' crates); then
    echo "stand-in-only serde call under crates/:" >&2
    echo "$hits" >&2
    exit 1
fi

# FNV-1a is one byte per 128-bit multiply: fine for signatures and shard
# routing, never for tensor bytes. The modules every payload byte passes
# through hash with the lane kernel (checksum64 / ContentHash::of_bytes)
# and may name FNV only inside `#[cfg(test)]` items (the log store's
# legacy-format fixture).
echo "== no byte-serial FNV on the payload path"
payload_path=(crates/tensor/src/ser.rs crates/tensor/src/delta.rs
    crates/kv/src/chunkstore.rs crates/kv/src/logstore.rs
    crates/core/src/provider/*.rs crates/core/src/watch.rs)
if hits=$(awk '
    FNR == 1 { in_test = 0; pending = 0 }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending { pending = 0; if (/\{$/) in_test = 1; else next }
    in_test && /^}/ { in_test = 0; next }
    !in_test && /fnv1a128|Fnv128/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }
' "${payload_path[@]}"); then
    echo "byte-serial FNV named in a payload-path module:" >&2
    echo "$hits" >&2
    exit 1
fi

# The arch index is an immutable value: readers share a published clone
# and nothing on the read path is interior-mutable. A lock named outside
# `#[cfg(test)]` would be the memo's 64 + 16 mutex shards growing back.
echo "== no locks in the arch index"
if hits=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /Mutex|RwLock|\.lock\(\)/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }
' crates/graph/src/index.rs); then
    echo "lock named in the arch index read path:" >&2
    echo "$hits" >&2
    exit 1
fi

# The payload path's per-tensor loops run through `core::par`. A loop put
# back on the vendored rayon stub would compile, pass every test and
# silently go serial again; and the one lifetime erasure that lets pool
# helpers borrow a caller's stack is the only `unsafe` in the workspace
# but the log store's read.
echo "== payload loops stay on core::par; collectives spawn no threads; one dispatch engine; unsafe stays in par.rs and LogStore::read_at"
# A guarded file that moves would make grep and awk error out, which the
# guards below would read as "no hit": every path must exist.
client_src=(crates/core/src/client/*.rs)
for path in "${client_src[@]}" crates/core/src/provider/data.rs \
    crates/core/src/provider/delta.rs crates/rpc/src/resilient.rs; do
    if [[ ! -f "$path" ]]; then
        echo "tools/check.sh: guarded file $path is gone; retarget its guard" >&2
        exit 1
    fi
done
if hits=$(grep -n 'par_iter' "${client_src[@]}" \
    crates/core/src/provider/data.rs crates/core/src/provider/delta.rs); then
    echo "payload-path loop on the sequential rayon stub:" >&2
    echo "$hits" >&2
    exit 1
fi
# Collectives run on the caller's thread: every leg goes out with
# `call_async` before any reply is awaited. A thread per leg put back would
# pass every test and cost a thread start (~128 µs on a loaded 2-core host)
# per leg of every retire again; `core::par` is the one worker pool.
if hits=$(awk '
    FNR == 1 { in_test = 0; pending = 0 }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending { pending = 0; if (/\{$/) in_test = 1; else next }
    in_test && /^}/ { in_test = 0; next }
    !in_test && /thread::scope|thread::spawn|scope\.spawn/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }
' crates/rpc/src/resilient.rs "${client_src[@]}"); then
    echo "thread spawned on the collective / client op path:" >&2
    echo "$hits" >&2
    exit 1
fi
# Every call shape (unary, fan_out, broadcast) is the one engine: a single
# dispatch site and a single deadline wait. A second retry loop put back
# beside it would pass every test and let the shapes drift apart again.
sites=$(awk '
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending { pending = 0; if (/\{$/) exit; else next }
    { dispatch += gsub(/call_async\(/, "&"); wait += gsub(/recv_timeout/, "&") }
    END { print dispatch + 0, wait + 0 }
' crates/rpc/src/resilient.rs)
if [[ "$sites" != "1 1" ]]; then
    echo "crates/rpc/src/resilient.rs: want exactly one call_async( and one recv_timeout outside tests, found $sites" >&2
    exit 1
fi
# The one other `unsafe` is the log store's read: `LogStore::read_at` reads
# a value into a buffer's spare capacity with `pread`, because std has no
# stable read into uninitialized memory and zero-filling first writes every
# byte the log read path returns twice.
logstore=crates/kv/src/logstore.rs
if hits=$(grep -rnw --include='*.rs' 'unsafe' crates vendor src examples tests benchmark/src |
    grep -v -e '^crates/core/src/par.rs:' -e "^$logstore:"); then
    echo "unsafe outside crates/core/src/par.rs and LogStore::read_at:" >&2
    echo "$hits" >&2
    exit 1
fi
if [[ ! -f "$logstore" ]] || ! grep -q '^    fn read_at($' "$logstore"; then
    echo "tools/check.sh: LogStore::read_at is gone from $logstore; retarget its guard" >&2
    exit 1
fi
if hits=$(awk '
    /^    fn read_at\($/ { in_fn = 1 }
    in_fn && /^    }$/ { in_fn = 0; next }
    !in_fn && /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }
' "$logstore"); then
    echo "unsafe in $logstore outside LogStore::read_at:" >&2
    echo "$hits" >&2
    exit 1
fi

# A pooled read buffer reaches a `Bytes` only through `PoolBuf::freeze`
# in crates/kv/src/pool.rs, the one owner that gives its buffer back. A
# second owner type would compile, pass every test and fault fresh pages
# on every load again (or never return its buffer). `Vec::from` of an
# owner-backed `Bytes` copies the record: the delta chain's raw base is
# read into a pool buffer and patched there, never converted.
echo "== read buffers: Bytes::from_owner only in kv::pool, no Vec::from in the delta chain"
pool=crates/kv/src/pool.rs
delta=crates/core/src/provider/delta.rs
for path in "$pool" "$delta"; do
    if [[ ! -f "$path" ]]; then
        echo "tools/check.sh: guarded file $path is gone; retarget its guard" >&2
        exit 1
    fi
done
if hits=$(awk -v pool="$pool" '
    FNR == 1 { in_test = 0; pending = 0 }
    FILENAME == pool { nextfile }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending { pending = 0; if (/\{$/) in_test = 1; else next }
    in_test && /^}/ { in_test = 0; next }
    in_test || /^[[:space:]]*\/\// { next }
    /Bytes::from_owner\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }
' $(find crates/*/src src examples vendor -name '*.rs' | sort)); then
    echo "Bytes::from_owner( called outside $pool:" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(grep -n 'Vec::from(' "$delta"); then
    echo "Vec::from( in $delta (it copies a pooled record):" >&2
    echo "$hits" >&2
    exit 1
fi

# Tensor records cross the fabric through one module (pack, record_in,
# validate_entry / read_entry, pushed_chunks). The contiguous codec, a
# consolidation buffer, a gathering slice or a manifest built or walked by
# hand put back anywhere else under crates/core/src would compile, pass
# every test and silently copy — or skip a bounds check — again. Test
# modules and comments may name them; so may the lines records.rs
# allow-lists (`//! allow: <file> <pattern> <reason>`), each of which must
# still be in use.
echo "== record plane: codec, gathers and manifests only through core::records"
plane=crates/core/src/records.rs
if hits=$(awk -v plane="$plane" '
    BEGIN {
        n = split("write_tensor(|read_tensor(|BytesMut|region.slice(|rope::flatten(|slice_rope(|ManifestEntry {", pat, "|")
    }
    FNR == 1 { in_test = 0; pending = 0 }
    FILENAME == plane {
        if ($1 == "//!" && $2 == "allow:") allow[$3 SUBSEP $4] = 0
        next
    }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending { pending = 0; if (/\{$/) in_test = 1; else next }
    in_test && /^}/ { in_test = 0; next }
    in_test || /^[[:space:]]*\/\// { next }
    {
        for (i = 1; i <= n; i++) {
            if (!index($0, pat[i])) continue
            if ((FILENAME SUBSEP pat[i]) in allow) { allow[FILENAME SUBSEP pat[i]]++; continue }
            print FILENAME ":" FNR ": " $0
            found = 1
        }
    }
    END {
        for (entry in allow) if (!allow[entry]) {
            split(entry, part, SUBSEP)
            print plane ": stale allow-list entry: " part[1] " " part[2]
            found = 1
        }
        exit !found
    }
' "$plane" $(find crates/core/src -name '*.rs' ! -path "$plane" | sort)); then
    echo "record handling outside the record plane:" >&2
    echo "$hits" >&2
    exit 1
fi

# One reclamation rule: a delta record holds a reference on its base, and
# every physical drop goes through the release path in provider/refs.rs.
# The fence that re-based dependents before a base died is gone; a second
# drop path, or a release whose error is thrown away, would compile, pass
# every test and lose a base under a live delta again.
echo "== one release path: no fence, no second drop path, no discarded release, one raw-cache fill"
if hits=$(grep -rnwE 'delta_deps|before_reclaim' crates); then
    echo "the reclaim fence is back:" >&2
    echo "$hits" >&2
    exit 1
fi
# One transfer path per substrate: whole records repair over materialized
# SYNC_MODEL, the chunked + delta substrate negotiates chunks. The verbatim
# record leg, the watcher's chunk exchange and the store-policy knobs no
# caller built would compile and pass every test if put back, and repair
# would choose its leg by trial again.
echo "== one transfer path per substrate: no verbatim leg, no chunk exchange, two store policies"
if hits=$(grep -rnwE 'raw_records|FetchChunks|fetch_chunks|ChunkingPolicy|DeltaPolicy' crates); then
    echo "a deleted transfer path or store-policy knob is back:" >&2
    echo "$hits" >&2
    exit 1
fi
# Under provider/ and deployment/ no count is dropped but in refs.rs, and
# nowhere under crates/ is a tensor store's count dropped or set: the
# release path is also where a record's raw-cache entry goes, so a count
# dropped anywhere else could leave an entry serving bytes its key no
# longer holds.
release=crates/core/src/provider/refs.rs
if hits=$(awk -v release="$release" '
    FNR == 1 { in_test = 0; pending = 0 }
    FILENAME == release { nextfile }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending { pending = 0; if (/\{$/) in_test = 1; else next }
    in_test && /^}/ { in_test = 0; next }
    in_test || /^[[:space:]]*\/\// { next }
    FILENAME ~ /^crates\/core\/src\/(provider|deployment)\// && /\.decr\(|\.set_refs\(|purge_zero_refs\(/ ||
    /tensors\.(decr|set_refs)\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }
' $(find crates -path '*/src/*.rs' | sort)); then
    echo "reference count dropped outside the release path ($release):" >&2
    echo "$hits" >&2
    exit 1
fi
# The raw-record cache is filled in one place, the store landing in
# provider/catalog.rs, after the store's writes and before its model is
# published. A fill anywhere else (a sync leg, a read) would compile and
# pass every test, and could cache a record no write set holds.
landing=crates/core/src/provider/catalog.rs
fills=$(awk '
    FNR == 1 { in_test = 0; pending = 0 }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending { pending = 0; if (/\{$/) in_test = 1; else next }
    in_test && /^}/ { in_test = 0; next }
    in_test || /^[[:space:]]*\/\// { next }
    /\.admit\(/ { print FILENAME }
' $(find crates -path '*/src/*.rs' | sort) | sort | uniq -c | awk '{ print $2 ":" $1 }' | tr '\n' ' ')
if [[ "$fills" != "$landing:1 " ]]; then
    echo "raw-record cache filled at: ${fills:-nowhere} (want one .admit( call, in $landing)" >&2
    exit 1
fi
if hits=$(grep -rnE 'let _ = .*\b(release|release_held|release_all|drop_held|persist_record|unpersist_record|land)\(' crates); then
    echo "a release path result discarded:" >&2
    echo "$hits" >&2
    exit 1
fi
# A retirement's decrements belong to the provider that drops the record:
# its decrement pump sends them, and a client's retire is one round. Under
# client/ the one DECR_REFS call is `decrement`, which only a failed
# store's pin rollback (`unpin`) and the flush of its parked legs reach;
# and a retirement's deterministic op id is named only where the pump
# builds its legs and where repair fences them. A client-side decrement
# round put back would compile, pass every test and cost every retire a
# second round again.
echo "== retirement decrements: sent by the provider pump; the client decrements only for unpin"
fn_hits() {
    # `file:fn:count` for every non-test, non-comment line matching $1.
    local pattern=$1
    shift
    awk -v pattern="$pattern" '
        FNR == 1 { in_test = 0; pending = 0; cur = "" }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending { pending = 0; if (/\{$/) in_test = 1; else next }
        in_test && /^}/ { in_test = 0; next }
        in_test || /^[[:space:]]*\/\// { next }
        match($0, /fn [A-Za-z0-9_]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) }
        $0 ~ pattern { print FILENAME ":" cur }
    ' "$@" | sort | uniq -c | awk '{ print $2 ":" $1 }' | tr '\n' ' '
}
want="crates/core/src/client/retire.rs:decrement:1 "
if [[ "$(fn_hits 'DecrRefs' "${client_src[@]}")" != "$want" ]]; then
    echo "DECR_REFS named under crates/core/src/client/ at: $(fn_hits 'DecrRefs' "${client_src[@]}") (want $want)" >&2
    exit 1
fi
want="crates/core/src/client/retire.rs:flush_pending_decrements:1 crates/core/src/client/retire.rs:unpin:1 "
if [[ "$(fn_hits '[.]decrement[(]' "${client_src[@]}")" != "$want" ]]; then
    echo "the client's decrement reached from: $(fn_hits '[.]decrement[(]' "${client_src[@]}") (want $want)" >&2
    exit 1
fi
sources=$(find crates/*/src src examples -name '*.rs' | sort)
# shellcheck disable=SC2086 # one path per line, none with spaces
named=$(fn_hits 'retirement_op_id[(]' $sources)
want="crates/core/src/messages.rs:retirement_op_id:1 crates/core/src/provider/decrements.rs:retire:1 crates/core/src/provider/transfer.rs:handle_sync_retire:1 "
if [[ "$named" != "$want" ]]; then
    echo "retirement_op_id( named at: $named (want its definition, the pump and the repair fence: $want)" >&2
    exit 1
fi

# One write set per provider write: every reference a store, mirror leg,
# sync or attach takes (a record put at count 1, a pin on a delta's base)
# goes into its `WriteSet`, and `land` commits the set with the record or
# gives all of it back. A tensor-store put anywhere but provider/write_set.rs
# (substrate.rs defines the store; the meta store is not a tensor store)
# would compile, pass every test and leak its reference the first time the
# write failed after it, as the deleted `put_records` did.
echo "== one write set per provider write: tensor-store puts only in provider/write_set.rs"
write_set=crates/core/src/provider/write_set.rs
if hits=$(awk -v write_set="$write_set" '
    FNR == 1 { in_test = 0; pending = 0 }
    FILENAME == write_set || FILENAME ~ /provider\/substrate\.rs$/ { nextfile }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending { pending = 0; if (/\{$/) in_test = 1; else next }
    in_test && /^}/ { in_test = 0; next }
    in_test || /^[[:space:]]*\/\// { next }
    /meta_store\.put\(/ { next }
    /\.(put|put_segments|put_with|put_fresh_with)\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }
' crates/core/src/provider/*.rs); then
    echo "tensor-store put outside the write set ($write_set):" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(grep -rnw 'put_records' crates examples); then
    echo "a deleted write path is back:" >&2
    echo "$hits" >&2
    exit 1
fi

# One path in and one path out of a provider's catalog: a record enters
# through `install_record` and leaves through `retire_record`, both in
# provider/catalog.rs, and each writes the meta store before it publishes.
# An insert, remove or persist anywhere else would compile, pass every
# test and publish a record the meta store does not hold (or keep one it
# no longer does); the reply cache and sync record type it replaced would
# be a second copy of the record to keep in step.
echo "== one path in and out of the catalog: mutations only in provider/catalog.rs"
catalog=crates/core/src/provider/catalog.rs
if hits=$(awk -v catalog="$catalog" '
    FNR == 1 { in_test = 0; pending = 0 }
    FILENAME == catalog { nextfile }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending { pending = 0; if (/\{$/) in_test = 1; else next }
    in_test && /^}/ { in_test = 0; next }
    in_test || /^[[:space:]]*\/\// { next }
    /(^|[^A-Za-z0-9_])c\.(insert|remove)\(|persist_record\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }
' $(find crates -path '*/src/*.rs' | sort)); then
    echo "catalog mutated outside $catalog:" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(grep -rnwE 'MetaReplyCache|META_REPLY_SHARDS|SyncedModel' crates examples); then
    echo "a deleted catalog copy is back:" >&2
    echo "$hits" >&2
    exit 1
fi

# One reference census: reopen, repair and gc_audit take their expected
# counts from the digests' census and install them through the refs sync,
# and the delta chain bound is a constant held where deltas are written.
# A replayed count, a hand-written catalog union or the re-base pass would
# compile and pass every test if put back. The pre-change STATS fixture
# in messages.rs keeps the dropped counter on purpose.
echo "== one reference census: no replayed counts, no re-base pass"
if hits=$(grep -rnwE 'compact_deltas|rebase_deltas|replay_ref|purge_orphan_tensors|catalog_entries|max_chain_depth|delta_rebased' crates examples \
    | grep -vE '^crates/core/src/messages\.rs:[0-9]+:.*PARENT_STATS_JSON'); then
    echo "a deleted recount or re-base path is back:" >&2
    echo "$hits" >&2
    exit 1
fi

# The tensor store is one type, `provider::Substrate`, chosen once from the
# store policy: chunk operations are reached through its chunked arm, not
# through optional methods on every backend, and the provider keeps no
# hub-less tracing branch or never-varied watcher switch beside it. Its
# physical stacks are the two that run (memory, log): no tiered store, no
# log tuning struct, no fanned shard layout over the log (one log per
# provider store), and no public function that nothing calls.
echo "== one substrate type: no optional chunk surface, no hub-less provider, no unused stack"
if hits=$(grep -rnwE 'chunk_probe|chunk_listing|chunk_fetch|chunk_insert|put_chunked|hub_attached|auto_resubscribe|TieredStore|FannedLogStore|shard_count|memory_budget|open_with|weights_path_of|io_share|source_count|endpoint_ids|rate_per_transfer' crates examples); then
    echo "a deleted substrate or option path is back:" >&2
    echo "$hits" >&2
    exit 1
fi

# The obs hub holds what is attached to it weakly, through one list type:
# the owner keeps the strong handle. A hub-side attach of a caller's
# recorder or a strong list of logs would keep a dropped client's ring.
echo "== one hub attachment rule: no strong hub lists"
if hits=$(grep -rnwE 'attach_recorder|SharedSlowOpLogs' crates examples src tests); then
    echo "a deleted hub attachment path is back:" >&2
    echo "$hits" >&2
    exit 1
fi

# One best-ancestor rule: the candidate type, its order (longer prefix,
# then higher quality, then lower model id) and the full scans live in
# crates/graph/src/ancestor.rs, and the index walk, the unindexed scan,
# the client's reduce and the Redis baseline all call them. A second copy
# of the order would compile and pass every test until the copies drift,
# and Fig 5 would then race queries with different winners. Tests keep
# their own oracles.
echo "== one ancestor order: the rule lives in graph::ancestor"
if hits=$(grep -rnwE 'BestMatch|AsGraph|better_candidate|IndexCandidate|BestAncestor|best_ancestor_exhaustive|match_pattern_with|TransferSource' crates examples src tests); then
    echo "a deleted ancestor type or scan is back:" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(awk '
    FNR == 1 { in_test = 0; pending = 0 }
    FILENAME == "crates/graph/src/ancestor.rs" { nextfile }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending { pending = 0; if (/\{$/) in_test = 1; else next }
    in_test && /^}/ { in_test = 0; next }
    in_test || /^[[:space:]]*\/\// { next }
    /quality[A-Za-z0-9_.]*[[:space:]]*(==|!=|>=|<=|>|<)[[:space:]]*[*&]?[A-Za-z0-9_.]*quality/ ||
    /quality[A-Za-z0-9_.]*\.(partial_cmp|total_cmp)\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }
' $(find crates/*/src src examples -name '*.rs' | sort)); then
    echo "candidate qualities compared outside crates/graph/src/ancestor.rs:" >&2
    echo "$hits" >&2
    exit 1
fi

# With one CPU the pool has no helpers and `par::map` must be the plain
# serial loop: the pool's own tests and one fixed-length bulk_checkpoint
# run (the workload that forks on every op) have to finish there.
pin=""
if command -v taskset >/dev/null; then
    pin="taskset -c 0"
fi
echo "== core::par on one CPU (${pin:-taskset not found: unpinned})"
$pin cargo test -q -p evostore-core --lib par::

# benchmark/ is a workspace of its own, so `--workspace` cannot see it:
# its self-tests plus one short single run per workload (the single-run
# form appends nothing to benchmark/results/history.jsonl) catch a
# public-API change that breaks the benchmark.
echo "== benchmark workspace (self-tests + one 1s run per workload)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo test --offline --manifest-path benchmark/Cargo.toml -q
for workload in nas_evolve bulk_checkpoint catalog_churn replicated_finetune; do
    result=$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    if [[ "$result" != *'"failed": 0,'* ]]; then
        echo "benchmark workload $workload did not finish clean: $result" >&2
        exit 1
    fi
    # nas_evolve sets its deployment up three times, each holding about
    # 425 MB of tensors. A dropped deployment gives its memory back, so
    # the peak stays near one set-up (about 0.46 GB); set-ups that stack,
    # as when a dropped endpoint kept its provider alive, read about 1.3 GB.
    if [[ "$workload" == nas_evolve ]]; then
        rss=$(sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p' <<<"$result")
        if [[ -z "$rss" ]] || awk -v rss="$rss" 'BEGIN { exit !(rss > 800) }'; then
            echo "nas_evolve peak_rss_mb ${rss:-missing} is above 800 MB: dropped set-ups stack" >&2
            exit 1
        fi
    fi
done
result=$($pin bash benchmark/run.sh --workload bulk_checkpoint --seed 1 --quick --trace 0 | tail -n 1)
if [[ "$result" != *'"failed": 0,'* ]]; then
    echo "bulk_checkpoint on one CPU did not finish clean: $result" >&2
    exit 1
fi
# benchmark/Cargo.lock is part of the frozen benchmark: a dependency edge
# added to a crate makes the build above rewrite it.
if ! git diff --quiet -- benchmark/Cargo.lock; then
    echo "the benchmark build rewrote benchmark/Cargo.lock (a dependency edge changed):" >&2
    git --no-pager diff --stat -- benchmark/Cargo.lock >&2
    exit 1
fi

# Every paper-figure and ablation bin runs end to end at its smallest
# size (a few seconds in all): they build deployments and clients through
# the public API, which no test covers. A new bin needs a row here.
echo "== every figure and ablation bin at its smallest size"
declare -A smallest=(
    [fig4_incremental_write]="--model-gb 0.01 --layers 10"
    [fig5_lcp_scalability]="--catalog 200 --queries 100 --workers 2"
    [fig6_accuracy_over_time]="--workers 4 --candidates 20"
    [fig7_time_to_target]="--candidates 20"
    [fig8_end_to_end]="--candidates 20"
    [fig9_task_timeline]="--workers 4 --candidates 20"
    [fig10_storage_space]="--workers 4 --candidates 20"
    [ablation_incremental]="--workers 4 --candidates 20"
    [ablation_zero_cost_proxy]="--workers 4 --candidates 20"
)
cargo build --release -q -p evostore-bench --bins
for src in crates/bench/src/bin/fig*.rs crates/bench/src/bin/ablation_*.rs; do
    bin=$(basename "$src" .rs)
    if [[ -z "${smallest[$bin]+set}" ]]; then
        echo "no smallest size for $bin in tools/check.sh" >&2
        exit 1
    fi
    # shellcheck disable=SC2086 # the size is a list of arguments
    if ! out=$("$CARGO_TARGET_DIR/release/$bin" ${smallest[$bin]} 2>&1); then
        echo "$bin ${smallest[$bin]} failed:" >&2
        tail -n 20 <<<"$out" >&2
        exit 1
    fi
done
# The A/B form of fig5 is the one end-to-end run of the unindexed scan
# (`--no-index`): it answers the same probes both ways on one catalog.
# shellcheck disable=SC2086 # the size is a list of arguments
if ! out=$("$CARGO_TARGET_DIR/release/fig5_lcp_scalability" ${smallest[fig5_lcp_scalability]} --ab 2>&1); then
    echo "fig5_lcp_scalability ${smallest[fig5_lcp_scalability]} --ab failed:" >&2
    tail -n 20 <<<"$out" >&2
    exit 1
fi

# Optional tier-2: scaled-down fig5 indexed-vs-unindexed ablation,
# recording queries/sec and the index counters to results/BENCH_lcp.json.
if [[ "${RUN_BENCH_SMOKE:-0}" == "1" ]]; then
    tools/bench-smoke.sh
fi

# Optional tier-2: replication chaos smoke — seeded FaultSchedule replay
# with anti-entropy repair + gc_audit, plus the R=1 vs R=2 availability
# A/B recorded to results/BENCH_replication.json.
if [[ "${RUN_CHAOS_SMOKE:-0}" == "1" ]]; then
    tools/chaos-smoke.sh
fi

# Optional tier-2: observability smoke — the chaos example's flight-dump
# postmortem must explain every degraded answer (provider + fault
# window) and the unified metrics export must carry every island.
if [[ "${RUN_OBS_SMOKE:-0}" == "1" ]]; then
    tools/obs-smoke.sh
fi

# Optional tier-2: dedup/delta A/B — whole-tensor records vs the
# content-addressed chunked + delta substrate on derived-model churn,
# recorded to results/BENCH_dedup.json and gated on >= 3x physical
# storage savings with delta reconstruction <= 2x raw read latency.
if [[ "${RUN_BENCH_DEDUP:-0}" == "1" ]]; then
    tools/bench-dedup.sh
fi

# Optional tier-2: observability overhead A/B — the same batched LCP
# query stream through TelemetryLevel::Full vs Minimal clients, recorded
# to results/BENCH_obs.json and gated on the full telemetry pipeline
# (spans + exemplars + SLO engine + ledger) costing <= 5% on the catalog
# hot path.
if [[ "${RUN_BENCH_OBS:-0}" == "1" ]]; then
    tools/bench-obs.sh
fi

# Optional tier-2: delivery-plane A/B — one release fanned out over
# broadcast-tree fetch chains with peer-assisted segment exchange vs
# provider unicast, live and simulated to 10k subscribers, recorded to
# results/BENCH_deliver.json and gated on >= 4x provider egress
# reduction with p99 time-to-weights <= 2x unicast at 1k subscribers.
if [[ "${RUN_BENCH_DELIVER:-0}" == "1" ]]; then
    tools/bench-deliver.sh
fi

echo "== OK"
