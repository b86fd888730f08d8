(* The versioned fleet-trace format: mcc-trace 1.

   A version header, a few "meta" provenance lines, then one "ev" line
   per request. Text on purpose — traces are committed to the repo as
   golden scenarios, and a reviewer must be able to read a diff of one.

   The reader treats its input as untrusted (traces cross machines and
   are fuzzed like every other decoder): every failure is a typed
   Decode_error with the line number as position, never an exception. *)

type op = Fetch | Stream | Resume | Update

let op_name = function
  | Fetch -> "fetch"
  | Stream -> "stream"
  | Resume -> "resume"
  | Update -> "update"

let op_of_name = function
  | "fetch" -> Some Fetch
  | "stream" -> Some Stream
  | "resume" -> Some Resume
  | "update" -> Some Update
  | _ -> None

type fault = { fkind : Support.Fault.kind; fseed : int64 }

type event = {
  t_ms : int;
  client : string;
  profile : string;
  op : op;
  key : string;
  fault : fault option;
}

type t = {
  scenario : string;
  catalog : string;
  seed : int64;
  events : event list;
}

let fault_kind_of_name name =
  Array.find_opt
    (fun k -> Support.Fault.kind_name k = name)
    Support.Fault.kinds

(* ---- writer ---- *)

let to_string t =
  let b = Buffer.create (64 + (48 * List.length t.events)) in
  Buffer.add_string b "mcc-trace 1\n";
  Buffer.add_string b ("meta scenario " ^ t.scenario ^ "\n");
  Buffer.add_string b ("meta catalog " ^ t.catalog ^ "\n");
  Buffer.add_string b (Printf.sprintf "meta seed %Ld\n" t.seed);
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "ev %d %s %s %s %s" e.t_ms e.client e.profile
           (op_name e.op) e.key);
      (match e.fault with
      | None -> ()
      | Some f ->
        Buffer.add_string b
          (Printf.sprintf " fault %s %Ld" (Support.Fault.kind_name f.fkind)
             f.fseed));
      Buffer.add_char b '\n')
    t.events;
  Buffer.contents b

(* ---- total reader ---- *)

let default_max_events = 200_000

let fail ~pos kind msg = Support.Decode_error.fail ~decoder:"trace" ~kind ~pos msg

let of_string ?(max_events = default_max_events) s =
  Support.Decode_error.guard ~decoder:"trace" @@ fun () ->
  let lines = String.split_on_char '\n' s in
  let scenario = ref "" and catalog = ref "" and seed = ref 0L in
  let events = ref [] and n_events = ref 0 in
  let last_t = ref 0 in
  let saw_header = ref false in
  let token_must_be_simple ~pos what tok =
    if tok = "" then
      fail ~pos Support.Decode_error.Bad_value (what ^ " is empty")
  in
  let parse_int ~pos what tok =
    match int_of_string_opt tok with
    | Some v -> v
    | None ->
      fail ~pos Support.Decode_error.Bad_value
        (Printf.sprintf "%s %S is not an integer" what tok)
  in
  let parse_int64 ~pos what tok =
    match Int64.of_string_opt tok with
    | Some v -> v
    | None ->
      fail ~pos Support.Decode_error.Bad_value
        (Printf.sprintf "%s %S is not an integer" what tok)
  in
  List.iteri
    (fun i raw ->
      let pos = i + 1 in
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then ()
      else if not !saw_header then begin
        if line <> "mcc-trace 1" then
          fail ~pos Support.Decode_error.Bad_magic
            (Printf.sprintf "expected \"mcc-trace 1\", got %S" line);
        saw_header := true
      end
      else
        match
          String.split_on_char ' ' line |> List.filter (( <> ) "")
        with
        | "meta" :: rest -> (
          if !events <> [] then
            fail ~pos Support.Decode_error.Inconsistent
              "meta line after the first event";
          match rest with
          | [ "scenario"; v ] -> scenario := v
          | [ "catalog"; v ] -> catalog := v
          | [ "seed"; v ] -> seed := parse_int64 ~pos "seed" v
          | key :: _ ->
            fail ~pos Support.Decode_error.Bad_value
              (Printf.sprintf "unknown or malformed meta %S" key)
          | [] ->
            fail ~pos Support.Decode_error.Bad_value "empty meta line")
        | "ev" :: rest ->
          let t_ms, client, profile, opname, key, fault_toks =
            match rest with
            | [ t; c; p; o; k ] -> (t, c, p, o, k, [])
            | [ t; c; p; o; k; "fault"; fk; fs ] -> (t, c, p, o, k, [ fk; fs ])
            | _ ->
              fail ~pos Support.Decode_error.Bad_value
                (Printf.sprintf "event has %d fields, want 5 or 8"
                   (List.length rest + 1))
          in
          let t_ms = parse_int ~pos "timestamp" t_ms in
          if t_ms < 0 then
            fail ~pos Support.Decode_error.Bad_value "negative timestamp";
          if t_ms < !last_t then
            fail ~pos Support.Decode_error.Inconsistent
              (Printf.sprintf "timestamp %d before predecessor %d" t_ms !last_t);
          last_t := t_ms;
          token_must_be_simple ~pos "client" client;
          token_must_be_simple ~pos "profile" profile;
          token_must_be_simple ~pos "key" key;
          let op =
            match op_of_name opname with
            | Some op -> op
            | None ->
              fail ~pos Support.Decode_error.Bad_value
                (Printf.sprintf "unknown op %S" opname)
          in
          let fault =
            match fault_toks with
            | [] -> None
            | [ fk; fs ] -> (
              match fault_kind_of_name fk with
              | None ->
                fail ~pos Support.Decode_error.Bad_value
                  (Printf.sprintf "unknown fault kind %S" fk)
              | Some fkind ->
                Some { fkind; fseed = parse_int64 ~pos "fault seed" fs })
            | _ -> assert false
          in
          incr n_events;
          if !n_events > max_events then
            fail ~pos Support.Decode_error.Limit
              (Printf.sprintf "more than %d events" max_events);
          events := { t_ms; client; profile; op; key; fault } :: !events
        | tok :: _ ->
          fail ~pos Support.Decode_error.Bad_value
            (Printf.sprintf "unknown record %S" tok)
        | [] -> ())
    lines;
  if not !saw_header then
    fail ~pos:1 Support.Decode_error.Truncated "missing mcc-trace header";
  {
    scenario = !scenario;
    catalog = !catalog;
    seed = !seed;
    events = List.rev !events;
  }

(* ---- files ---- *)

let save path t =
  let oc = open_out_bin path in
  output_string oc (to_string t);
  close_out oc

let load ?max_events path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string ?max_events s
  | exception Sys_error msg ->
    Error
      {
        Support.Decode_error.decoder = "trace";
        kind = Support.Decode_error.Truncated;
        pos = 0;
        msg;
      }
