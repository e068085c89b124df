(** The versioned on-disk cache-dump format behind {!Session.dump} /
    {!Session.load} (docs/SERVING.md §persistence).

    A dump file is a four-line header followed by a marshalled payload:

    {v
    AN5D-CACHE            magic
    2                     format version
    <hex>                 key-schema digest (Request.key_schema_digest)
    <hex>                 payload digest
    <payload bytes>
    v}

    Loading refuses — with a reason, never an exception — any file
    whose magic, format version or key-schema digest does not match
    this build (a dump written before a cache-key grammar change must
    not seed a session with stale keys), and any file whose payload
    digest disagrees with its bytes (a single corrupted byte is a clean
    refuse-to-load). Only after all four checks pass is the payload
    unmarshalled, so [Marshal.from_string] never sees attacker- or
    bitrot-controlled bytes.

    Individual cached values are wrapped as digest-checked {!entry}
    records inside the payload, re-verified value-by-value at load
    time. *)

val format_version : int
(** 2. Bumped from 1 when {!Framework.outcome} gained its digest memo:
    the key schema did not change, so this line alone refuses a
    version-1 dump whose marshalled outcomes no longer match the type. *)

(** One digest-checked cached value: [bytes] is the marshalled value,
    [digest] its MD5. *)
type entry = { key : string; digest : string; bytes : string }

val entry_of : key:string -> 'a -> entry
(** Marshal a value into a checked entry. The value must be closure-free
    plain data (all serving-layer cache values are). *)

val entry_value : entry -> ('a, string) result
(** Verify the digest and unmarshal. The ['a] is trusted from the
    envelope's schema digest — only call on entries read through
    {!read}. *)

val write : path:string -> schema:string -> 'a -> (unit, string) result
(** Atomically write [value] under the envelope (via a temp file +
    rename, so a crashed dump never leaves a half-written file that a
    later load could read). *)

val read : path:string -> schema:string -> ('a, string) result
(** Read and verify the envelope, then unmarshal the payload. Total:
    missing files, short files, corrupt headers, stale schemas and
    corrupt payloads all return [Error reason]. *)
