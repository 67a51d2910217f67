(** Observability substrate: tracing spans, a metrics registry, and the
    exporters that serve the [morphqpv profile] subcommand and the bench
    harness.

    Everything is zero-cost when disabled: instrumentation sites guard on
    one {!enabled} read (an atomic load of an immediate bool) and do no
    allocation, no lookup, no clock read on the disabled path. The
    [obs_transparent] testkit oracle pins that enabling observability
    leaves every engine's outputs bit-identical — instrumentation never
    touches a random stream or reorders arithmetic.

    Enable with [MORPHQPV_OBS=1] in the environment or {!configure} at
    run time. *)

val enabled : unit -> bool
(** One atomic read; the guard every instrumentation site uses. *)

val configure : enabled:bool -> unit
(** Flip the global switch (overrides the [MORPHQPV_OBS] default). *)

val set_clock_for_testing : (unit -> float) option -> unit
(** Replace the span clock (microseconds) with a deterministic one, or
    restore the wall clock with [None]. Tests only. *)

(** Nestable tracing spans, buffered lock-free in one ring per domain and
    merged only at read time, so recording never synchronizes pool
    workers. *)
module Span : sig
  type ph = B | E

  type event = {
    seq : int;  (** global sequence number — total order across domains *)
    ts_us : float;  (** microseconds since process start *)
    name : string;
    ph : ph;
    tid : int;  (** recording domain id *)
    span : int;  (** span id (the B event's [seq]) *)
    parent : int;  (** enclosing span id on the same domain; [-1] = root *)
    attrs : (string * string) list;
  }

  (** One summary line: how often a span name ran and its total wall
      time. The inclusive times of nested spans overlap by design. *)
  type row = { name : string; count : int; total_s : float }

  type summary = row list

  val with_ : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a
  (** [with_ ~name f] runs [f] inside a span: a [B] event now, an [E]
      event when [f] returns or raises. When disabled this is exactly
      [f ()]. *)

  val mark : unit -> int
  (** Watermark for scoped reads: [events ~since:(mark ()) ()] later
      returns only events recorded after this point. *)

  val events : ?since:int -> ?until:int -> unit -> event list
  (** All buffered events (across every domain ring), oldest first.
      [~since:m0 ~until:m1] with two {!mark} watermarks returns exactly
      what was recorded between them. *)

  val summary : ?since:int -> ?until:int -> unit -> summary
  (** Aggregate closed spans by name, sorted by total time descending. *)

  val dropped : unit -> int
  (** Events discarded because a domain ring hit its capacity (the ring
      keeps the oldest events, so a trace is always a prefix). *)

  val reclaim : before:int -> unit -> unit
  (** Drop every buffered event with [seq < before], compacting quiescent
      rings in place so a long-running daemon's bounded rings never
      saturate across requests. Rings with an open span are left intact;
      {!dropped} is preserved (cumulative). The caller must ensure no
      domain is concurrently recording. *)

  val reset : unit -> unit
end

(** Process-wide counters, gauges and fixed-bucket histograms. Counters
    count deterministic work items (gates, shots, MACs) — never time —
    so snapshots are bit-identical across domain counts. *)
module Metrics : sig
  type labels = (string * string) list

  type histogram_view = {
    hbounds : float array;  (** upper bucket edges, ascending *)
    hcounts : int array;  (** length [hbounds] + 1; last is +inf *)
    hsum : float;
  }

  type data = Counter of int | Gauge of float | Histogram of histogram_view
  type entry = { name : string; labels : labels; data : data }

  val counter_add : ?labels:labels -> string -> int -> unit
  val gauge_set : ?labels:labels -> string -> float -> unit

  val observe : ?labels:labels -> ?buckets:float array -> string -> float -> unit
  (** Record one histogram observation. [buckets] (strictly increasing
      upper edges, bucket [i] counts [v <= edge i], plus an implicit +inf
      bucket) is read only when the histogram is first created. *)

  val counter_value : ?labels:labels -> string -> int option
  (** Read a counter back (works whether or not recording is enabled). *)

  val snapshot : unit -> entry list
  (** Stable snapshot, sorted by (name, labels). *)

  val snapshot_json : unit -> string
  (** The snapshot as one JSON object (schema [morphqpv-obs-v1]). *)

  val schema : string

  val reset : unit -> unit
end

module Export : sig
  val trace_jsonl : ?since:int -> ?until:int -> unit -> string
  (** Spans as Chrome [trace_event] records, one JSON object per line
      ([ph:"B"/"E"], [ts] in microseconds), loadable in
      [chrome://tracing] / Perfetto. *)

  val event_json : Span.event -> string
  (** One span event as a single Chrome [trace_event] JSON object. *)

  val write_trace : ?since:int -> ?until:int -> string -> unit
  val write_metrics : string -> unit

  val prometheus : unit -> string
  (** The metrics registry in Prometheus text exposition format 0.0.4:
      every series under the [morphqpv_] prefix with a [# TYPE] line per
      metric, histograms with cumulative [le] buckets plus [_sum] and
      [_count], and {!Span.dropped} synthesized at scrape time as
      [morphqpv_obs_span_dropped_total]. *)

  val write_prometheus : string -> unit
end

(** Structured, leveled logging: one flat JSON object per line to a
    process-wide sink, zero-cost when disabled (each site guards on one
    atomic read). Lines automatically carry the current {!Context}
    request id as a [req] field. Enable with [MORPHQPV_LOG=<path>|stderr|-]
    and [MORPHQPV_LOG_LEVEL], or {!Log.configure}. *)
module Log : sig
  type level = Debug | Info | Warn | Error
  type value = S of string | I of int | F of float | B of bool

  type sink =
    [ `Stderr | `Stdout | `File of string | `Fn of string -> unit | `Off ]

  val enabled : level -> bool
  (** One atomic read; true when [level] reaches the configured
      threshold. Guard any log site whose field list is costly. *)

  val configure : ?level:level -> sink -> unit
  (** Route lines to [sink], keeping those at or above [level]
      (default [Info]). [`Off] disables logging entirely. *)

  val emit : level -> string -> (string * value) list -> unit
  (** [emit level event fields] writes one JSONL line
      [{"ts":...,"level":...,"event":event,"req":...,fields...}].
      No-op below the threshold. *)

  val level_of_string : string -> level option

  val add_escaped : Buffer.t -> string -> unit
  (** [add_escaped b s] appends [s] as a quoted JSON string literal:
      quote and backslash are backslash-escaped, newline, carriage return
      and tab use their short escapes, other control characters
      [\u00XX]. The one JSON string escaper: log lines, the metrics and
      trace exporters and the RPC protocol's writer all use it, so the
      output is always a single line. *)
end

(** Request-scoped context: a domain-local request id stamped onto every
    span ([req] attribute) and log line ([req] field) recorded while a
    request is being handled. *)
module Context : sig
  val current : unit -> string option

  val with_request : string -> (unit -> 'a) -> 'a
  (** [with_request id f] runs [f] with [current () = Some id] on this
      domain, restoring the previous value afterwards (re-entrant). *)
end
