type diff = {
  a : Replay.report;
  b : Replay.report;
  d_bytes : int;
  d_bytes_pct : float;
  d_p99_ms : float;
  d_hit_rate : float;
  same_events : bool;
}

let run ~(a : Replay.config) ~(b : Replay.config) trace =
  let ra = Replay.run ~config:a trace in
  let rb = Replay.run ~config:b trace in
  let d_bytes = ra.Replay.r_bytes_on_wire - rb.Replay.r_bytes_on_wire in
  let d_bytes_pct =
    if rb.Replay.r_bytes_on_wire = 0 then 0.
    else float_of_int d_bytes /. float_of_int rb.Replay.r_bytes_on_wire *. 100.
  in
  {
    a = ra;
    b = rb;
    d_bytes;
    d_bytes_pct;
    d_p99_ms =
      ra.Replay.r_all.Replay.lat.Support.Quantile.p99_ms
      -. rb.Replay.r_all.Replay.lat.Support.Quantile.p99_ms;
    d_hit_rate = ra.Replay.r_cache_hit_rate -. rb.Replay.r_cache_hit_rate;
    same_events = ra.Replay.r_event_crc = rb.Replay.r_event_crc;
  }

let render (d : diff) =
  let a = d.a and b = d.b in
  let buf = Buffer.create 1024 in
  let row fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  row "mcc-ab 1  scenario=%s catalog=%s seed=%Ld events=%d" a.Replay.r_scenario
    a.Replay.r_catalog a.Replay.r_seed a.Replay.r_events;
  row "%-18s %14s %14s %14s" "" ("A:" ^ a.Replay.r_label)
    ("B:" ^ b.Replay.r_label) "delta (A-B)";
  row "%-18s %14d %14d %14d" "bytes on wire" a.Replay.r_bytes_on_wire
    b.Replay.r_bytes_on_wire d.d_bytes;
  row "%-18s %14s %14s %13.2f%%" "bytes delta" "" "" d.d_bytes_pct;
  row "%-18s %14.4f %14.4f %14.4f" "cache hit rate" a.Replay.r_cache_hit_rate
    b.Replay.r_cache_hit_rate d.d_hit_rate;
  row "%-18s %14d %14d %14d" "degraded" a.Replay.r_degraded b.Replay.r_degraded
    (a.Replay.r_degraded - b.Replay.r_degraded);
  row "%-18s %14d %14d %14d" "decode failures" a.Replay.r_decode_failures
    b.Replay.r_decode_failures
    (a.Replay.r_decode_failures - b.Replay.r_decode_failures);
  row "%-18s %14d %14d %14d" "quarantine heals" a.Replay.r_quarantine_heals
    b.Replay.r_quarantine_heals
    (a.Replay.r_quarantine_heals - b.Replay.r_quarantine_heals);
  let lat name (oa : Replay.opstats) (ob : Replay.opstats) =
    row "%-18s %14.2f %14.2f %14.2f" (name ^ " p99 ms")
      oa.Replay.lat.Support.Quantile.p99_ms ob.Replay.lat.Support.Quantile.p99_ms
      (oa.Replay.lat.Support.Quantile.p99_ms -. ob.Replay.lat.Support.Quantile.p99_ms);
    row "%-18s %14.2f %14.2f %14.2f" (name ^ " p50 ms")
      oa.Replay.lat.Support.Quantile.p50_ms ob.Replay.lat.Support.Quantile.p50_ms
      (oa.Replay.lat.Support.Quantile.p50_ms -. ob.Replay.lat.Support.Quantile.p50_ms)
  in
  lat "fetch" a.Replay.r_fetch b.Replay.r_fetch;
  lat "stream" a.Replay.r_stream b.Replay.r_stream;
  lat "resume" a.Replay.r_resume b.Replay.r_resume;
  lat "all" a.Replay.r_all b.Replay.r_all;
  row "identical event logs (same picks, sizes and cache hits): %s"
    (if d.same_events then "yes" else "no");
  Buffer.contents buf

let indent s =
  String.concat "\n"
    (List.map (fun l -> if l = "" then l else "  " ^ l)
       (String.split_on_char '\n' s))

let to_json (d : diff) =
  String.concat "\n"
    [
      "{";
      "  \"format\": \"mcc-ab 1\",";
      Printf.sprintf "  \"scenario\": \"%s\"," d.a.Replay.r_scenario;
      Printf.sprintf "  \"a\":\n%s," (indent (Replay.to_json d.a));
      Printf.sprintf "  \"b\":\n%s," (indent (Replay.to_json d.b));
      Printf.sprintf "  \"d_bytes\": %d," d.d_bytes;
      Printf.sprintf "  \"d_bytes_pct\": %.3f," d.d_bytes_pct;
      Printf.sprintf "  \"d_p99_ms\": %.3f," d.d_p99_ms;
      Printf.sprintf "  \"d_hit_rate\": %.4f," d.d_hit_rate;
      Printf.sprintf "  \"same_events\": %b" d.same_events;
      "}";
    ]
