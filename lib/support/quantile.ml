(* Latency-quantile math for the trace simulator's modelled latency
   buckets and the bench reports. *)

type bucket = {
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

let empty_bucket =
  { count = 0; mean_ms = 0.; p50_ms = 0.; p95_ms = 0.; p99_ms = 0.;
    max_ms = 0. }

(* Floor-index quantile over a sorted sample: index floor(p * (n-1)),
   clamped. The same estimator the load report has always used, exposed
   so every latency bucket and the property tests share it. *)
let percentile arr p =
  let n = Array.length arr in
  if n = 0 then 0.
  else arr.(min (n - 1) (int_of_float (p *. float_of_int (n - 1))))

let bucket_of_ms ms =
  match ms with
  | [] -> empty_bucket
  | _ ->
    let arr = Array.of_list ms in
    Array.sort compare arr;
    let n = Array.length arr in
    {
      count = n;
      mean_ms = Array.fold_left ( +. ) 0. arr /. float_of_int n;
      p50_ms = percentile arr 0.50;
      p95_ms = percentile arr 0.95;
      p99_ms = percentile arr 0.99;
      max_ms = arr.(n - 1);
    }
