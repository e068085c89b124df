(** Exporters for recorded traces and metric snapshots, built on the
    repository's one JSON codec ({!Json}).

    {!chrome_json} emits the Chrome [trace_event] format (a JSON object
    with a ["traceEvents"] array of B/E duration events), which loads
    directly into Perfetto ({:https://ui.perfetto.dev}) or Chrome's
    [about:tracing]. {!metrics_json} turns a metrics snapshot into a
    {!Json.t} value that the bench harness embeds in its [BENCH_*.json]
    files. {!validate_chrome} re-reads an exported trace through
    {!Json.of_string}; CI fails the build if the exporter ever emits a
    file it rejects. *)

val chrome_json : ?pid:int -> Trace.span list -> string
(** Render spans as Chrome trace_event JSON. Every span becomes a
    ["B"]/["E"] pair on its lane's [tid], replayed in the exact order
    the lane recorded them, with the span's attributes in the begin
    event's [args]. *)

val metrics_json : Metrics.snapshot -> Json.t
(** One JSON object: [{"counters": {...}, "gauges": {...},
    "histograms": {...}}]. A non-finite gauge or histogram value is a
    {!Json.Float} and so renders as [null]. *)

val validate_chrome : string -> (unit, string) result
(** Check that a string is well-formed Chrome trace JSON: parses, has a
    ["traceEvents"] array, every event has a valid phase, numeric [ts]
    and non-negative integer [pid]/[tid], and per-[tid] the ["B"] and
    ["E"] events balance like a bracket language (matching names). *)
