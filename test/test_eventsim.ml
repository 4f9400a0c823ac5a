open Eventsim

(* ---------------- Heap ---------------- *)

let test_heap_basic () =
  let h = Heap.create ~leq:( <= ) () in
  Testutil.check_bool "empty" true (Heap.is_empty h);
  Heap.push h 5;
  Heap.push h 1;
  Heap.push h 3;
  Testutil.check_int "length" 3 (Heap.length h);
  Testutil.check_int "peek" 1 (match Heap.peek h with Some v -> v | None -> -1);
  Testutil.check_int "pop1" 1 (Heap.pop_exn h);
  Testutil.check_int "pop2" 3 (Heap.pop_exn h);
  Testutil.check_int "pop3" 5 (Heap.pop_exn h);
  Testutil.check_bool "empty again" true (Heap.is_empty h)

let test_heap_pop_empty () =
  let h = Heap.create ~leq:( <= ) () in
  Testutil.check_bool "pop empty" true (Heap.pop h = None);
  Alcotest.check_raises "pop_exn empty" (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_clear_iter () =
  let h = Heap.create ~leq:( <= ) () in
  List.iter (Heap.push h) [ 4; 2; 9 ];
  let seen = ref 0 in
  Heap.iter h (fun _ -> incr seen);
  Testutil.check_int "iter count" 3 !seen;
  Heap.clear h;
  Testutil.check_int "cleared" 0 (Heap.length h)

let prop_heap_sorts =
  Testutil.prop "heap pops in sorted order"
    QCheck2.Gen.(list_size (int_bound 200) int)
    (fun xs ->
      let h = Heap.create ~leq:( <= ) () in
      List.iter (Heap.push h) xs;
      let out = ref [] in
      let rec drain () =
        match Heap.pop h with
        | Some v ->
          out := v :: !out;
          drain ()
        | None -> ()
      in
      drain ();
      List.rev !out = List.sort compare xs)

(* ---------------- Engine ---------------- *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:30 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:10 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:20 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Testutil.check_int "clock at last event" 30 (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:10 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:5 (fun () -> fired := true) in
  Testutil.check_bool "pending" true (Engine.is_pending h);
  Engine.cancel e h;
  Testutil.check_bool "not pending" false (Engine.is_pending h);
  Engine.run e;
  Testutil.check_bool "never fired" false !fired

(* pending_count is exact: cancelled events leave the count the moment
   they are cancelled, not when the heap eventually pops them *)
let test_engine_pending_count_exact () =
  let e = Engine.create () in
  let hs = Array.init 5 (fun _ -> Engine.schedule e ~delay:5 (fun () -> ())) in
  Testutil.check_int "all live" 5 (Engine.pending_count e);
  Engine.cancel e hs.(0);
  Engine.cancel e hs.(3);
  Testutil.check_int "cancelled leave immediately" 3 (Engine.pending_count e);
  Engine.cancel e hs.(0);
  Testutil.check_int "double cancel is a no-op" 3 (Engine.pending_count e);
  Engine.run e;
  Testutil.check_int "drained" 0 (Engine.pending_count e);
  Testutil.check_bool "fired events are not pending" false (Engine.is_pending hs.(1));
  Engine.cancel e hs.(1);
  Testutil.check_int "cancelling a fired event is a no-op" 0 (Engine.pending_count e);
  (* a large cancelled backlog never shows up, even before any run *)
  let hs = Array.init 100 (fun _ -> Engine.schedule e ~delay:5 (fun () -> ())) in
  Array.iter (fun h -> Engine.cancel e h) hs;
  Testutil.check_int "fully cancelled backlog counts zero" 0 (Engine.pending_count e)

(* same-instant FIFO order must survive interleaved cancellations: the
   survivors fire in their original scheduling order *)
let test_engine_fifo_with_cancels () =
  let e = Engine.create () in
  let log = ref [] in
  let hs =
    Array.init 8 (fun i -> Engine.schedule e ~delay:10 (fun () -> log := i :: !log))
  in
  Engine.cancel e hs.(1);
  Engine.cancel e hs.(4);
  Engine.cancel e hs.(7);
  (* late arrivals at the same instant still run after the survivors *)
  for i = 8 to 9 do
    ignore (Engine.schedule e ~delay:10 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo with holes" [ 0; 2; 3; 5; 6; 8; 9 ] (List.rev !log)

(* Handle-generation safety: a handle for an event that already fired
   must stay inert forever. In an engine that recycled slot indices, a
   late cancel through a stale handle could alias — and kill — an
   unrelated event scheduled into the reused slot; here handles are the
   event records themselves, so the cancel must be a pure no-op. The
   property interleaves rounds of scheduling with cancels of every
   previously-fired handle, issued *after* fresh events are queued (when
   a slot-reusing engine would have re-allocated the freed slots). *)
let prop_cancel_fired_handle_generation_safe =
  Testutil.prop "cancel on fired handles never hits later events" ~count:100
    QCheck2.Gen.(pair (int_bound 1000) (int_range 1 5))
    (fun (seed, rounds) ->
      let p = Prng.create seed in
      let e = Engine.create () in
      let fired = ref 0 and scheduled = ref 0 in
      let stale = ref [] in
      let ok = ref true in
      for _ = 1 to rounds do
        let n = 1 + Prng.int p 8 in
        let fresh =
          List.init n (fun _ ->
              incr scheduled;
              Engine.schedule e ~delay:(Prng.int p 50) (fun () -> incr fired))
        in
        List.iter
          (fun h ->
            Engine.cancel e h;
            if Engine.is_pending h then ok := false)
          !stale;
        Engine.run e;
        List.iter (fun h -> if Engine.is_pending h then ok := false) fresh;
        stale := fresh @ !stale
      done;
      !ok && !fired = !scheduled)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:10 (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:100 (fun () -> incr fired));
  Engine.run ~until:50 e;
  Testutil.check_int "only first fired" 1 !fired;
  Testutil.check_int "clock clamped" 50 (Engine.now e);
  Engine.run e;
  Testutil.check_int "rest fired" 2 !fired

let test_engine_max_events () =
  let e = Engine.create () in
  let fired = ref 0 in
  for _ = 1 to 10 do
    ignore (Engine.schedule e ~delay:1 (fun () -> incr fired))
  done;
  Engine.run ~max_events:4 e;
  Testutil.check_int "bounded" 4 !fired;
  Testutil.check_int "processed counter" 4 (Engine.events_processed e)

(* ---------------- extend: same-instant folding ---------------- *)

let test_engine_extend_chain () =
  let e = Engine.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  ignore (Engine.schedule_at e ~time:10 (note "before"));
  let h = Engine.schedule_at e ~time:10 (note "a") in
  Testutil.check_bool "fold b" true (Engine.extend e h ~time:10 (note "b"));
  Testutil.check_bool "fold c" true (Engine.extend e h ~time:10 (note "c"));
  Testutil.check_int "the chain is one pending event" 2 (Engine.pending_count e);
  Engine.run e;
  Alcotest.(check (list string)) "chain fires in order" [ "before"; "a"; "b"; "c" ]
    (List.rev !log);
  Testutil.check_int "one event for the chain" 2 (Engine.events_processed e);
  Testutil.check_int "at the chain's instant" 10 (Engine.now e)

let test_engine_extend_zero_delay_after_chain () =
  let e = Engine.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  let h =
    Engine.schedule_at e ~time:5 (fun () ->
        note "a" ();
        ignore (Engine.schedule e ~delay:0 (note "zero-delay")))
  in
  Testutil.check_bool "fold b" true (Engine.extend e h ~time:5 (note "b"));
  Testutil.check_bool "fold c" true (Engine.extend e h ~time:5 (note "c"));
  Engine.run e;
  Alcotest.(check (list string)) "scheduled from inside fires after all of it"
    [ "a"; "b"; "c"; "zero-delay" ] (List.rev !log)

let test_engine_extend_refusals () =
  let e = Engine.create () in
  let ran = ref 0 in
  let f () = incr ran in
  (* another instant *)
  let h = Engine.schedule_at e ~time:1 ignore in
  Testutil.check_bool "another instant" false (Engine.extend e h ~time:2 f);
  (* any other schedule in between *)
  ignore (Engine.schedule_at e ~time:1 ignore);
  Testutil.check_bool "after another schedule" false (Engine.extend e h ~time:1 f);
  (* a tagged event *)
  let tagged = Engine.schedule_tagged e ~delay:1 ~tag:"t" ignore in
  Testutil.check_bool "tagged" false (Engine.extend e tagged ~time:1 f);
  (* a cancelled event *)
  let c = Engine.schedule_at e ~time:1 ignore in
  Engine.cancel e c;
  Testutil.check_bool "cancelled" false (Engine.extend e c ~time:1 f);
  (* a fired event, even though it is still the last one enqueued *)
  Engine.run e;
  let fired = Engine.schedule_at e ~time:2 ignore in
  Engine.run e;
  Testutil.check_bool "fired" false (Engine.extend e fired ~time:2 f);
  Engine.run e;
  Testutil.check_int "no refused function ever ran" 0 !ran;
  Testutil.check_int "refusals leave no pending event" 0 (Engine.pending_count e)

let test_engine_validation () =
  let e = Engine.create ~now:100 () in
  Alcotest.check_raises "past" (Invalid_argument
                                  "Engine.schedule_at: time 50 is in the past (now 100)")
    (fun () -> ignore (Engine.schedule_at e ~time:50 (fun () -> ())));
  (try
     ignore (Engine.schedule e ~delay:(-1) (fun () -> ()));
     Alcotest.fail "negative delay accepted"
   with Invalid_argument _ -> ())

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:10 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:5 (fun () -> log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Testutil.check_int "final clock" 15 (Engine.now e)

let test_engine_step () =
  let e = Engine.create () in
  Testutil.check_bool "empty step" false (Engine.step e);
  ignore (Engine.schedule e ~delay:1 (fun () -> ()));
  Testutil.check_bool "one step" true (Engine.step e);
  Testutil.check_bool "drained" false (Engine.step e)

(* ---------------- Timer ---------------- *)

let test_timer_every () =
  let e = Engine.create () in
  let fired = ref 0 in
  let t = Timer.every e ~period:10 (fun () -> incr fired) in
  Engine.run ~until:55 e;
  Testutil.check_int "five firings" 5 !fired;
  Timer.stop t;
  Engine.run ~until:200 e;
  Testutil.check_int "stopped" 5 !fired

let test_timer_stop_from_callback () =
  let e = Engine.create () in
  let fired = ref 0 in
  let rec t = lazy (Timer.every e ~period:10 (fun () ->
      incr fired;
      if !fired = 3 then Timer.stop (Lazy.force t)))
  in
  ignore (Lazy.force t);
  Engine.run ~until:1000 e;
  Testutil.check_int "self-stop" 3 !fired

let test_timer_start_delay () =
  let e = Engine.create () in
  let first = ref (-1) in
  let t = Timer.every e ~period:10 ~start_delay:3 (fun () ->
      if !first < 0 then first := Engine.now e)
  in
  Engine.run ~until:30 e;
  Testutil.check_int "first at start_delay" 3 !first;
  Timer.stop t

let test_timer_after () =
  let e = Engine.create () in
  let fired = ref 0 in
  let t = Timer.after e ~delay:7 (fun () -> incr fired) in
  Testutil.check_bool "active" true (Timer.active t);
  Engine.run e;
  Testutil.check_int "once" 1 !fired;
  Testutil.check_bool "inactive after fire" false (Timer.active t)

let test_timer_after_stopped () =
  let e = Engine.create () in
  let fired = ref 0 in
  let t = Timer.after e ~delay:7 (fun () -> incr fired) in
  Timer.stop t;
  Engine.run e;
  Testutil.check_int "never" 0 !fired

let test_timer_invalid () =
  let e = Engine.create () in
  Alcotest.check_raises "period 0" (Invalid_argument "Timer.every: period must be positive")
    (fun () -> ignore (Timer.every e ~period:0 (fun () -> ())))

(* ---------------- Time ---------------- *)

let test_time_units () =
  Testutil.check_int "us" 1_000 (Time.us 1);
  Testutil.check_int "ms" 1_000_000 (Time.ms 1);
  Testutil.check_int "sec" 1_000_000_000 (Time.sec 1);
  Testutil.check_int "of_sec_f" 1_500_000_000 (Time.of_sec_f 1.5);
  Testutil.check_float_eps "to_ms_f" ~eps:1e-9 1.5 (Time.to_ms_f 1_500_000);
  Testutil.check_float_eps "to_sec_f" ~eps:1e-9 0.25 (Time.to_sec_f 250_000_000)

let test_time_pp () =
  Testutil.check_string "ns" "500ns" (Time.to_string 500);
  Testutil.check_string "us" "2us" (Time.to_string 2_000);
  Testutil.check_string "ms" "3ms" (Time.to_string 3_000_000);
  Testutil.check_string "s" "4s" (Time.to_string 4_000_000_000)

(* ---------------- Prng ---------------- *)

let test_prng_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let xa = Prng.next_int64 a and xb = Prng.next_int64 b in
  Testutil.check_bool "distinct streams" true (xa <> xb)

let test_prng_bounds_invalid () =
  let p = Prng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int p 0))

let prop_prng_int_bound =
  Testutil.prop "Prng.int in [0, bound)"
    QCheck2.Gen.(pair int (int_range 1 10_000))
    (fun (seed, bound) ->
      let p = Prng.create seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let prop_prng_int_in =
  Testutil.prop "Prng.int_in inclusive range"
    QCheck2.Gen.(triple int (int_range (-100) 100) (int_range 0 1000))
    (fun (seed, lo, span) ->
      let p = Prng.create seed in
      let v = Prng.int_in p lo (lo + span) in
      v >= lo && v <= lo + span)

let prop_prng_shuffle_permutes =
  Testutil.prop "shuffle preserves multiset"
    QCheck2.Gen.(pair int (list_size (int_bound 50) int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Prng.shuffle (Prng.create seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let test_prng_pick_sample () =
  let p = Prng.create 3 in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 50 do
    let v = Prng.pick p arr in
    Testutil.check_bool "pick member" true (Array.exists (fun x -> x = v) arr)
  done;
  let sampled = Prng.sample_without_replacement p 2 [ 1; 2; 3; 4 ] in
  Testutil.check_int "sample size" 2 (List.length sampled);
  Testutil.check_bool "distinct" true (List.sort_uniq compare sampled = List.sort compare sampled)

let test_prng_float_exponential () =
  let p = Prng.create 9 in
  for _ = 1 to 100 do
    let f = Prng.float p 2.0 in
    Testutil.check_bool "float range" true (f >= 0.0 && f < 2.0);
    Testutil.check_bool "exp positive" true (Prng.exponential p ~mean:1.0 >= 0.0)
  done

(* ---------------- Stats ---------------- *)

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c;
  Stats.Counter.add c 4;
  Testutil.check_int "value" 5 (Stats.Counter.value c);
  Stats.Counter.reset c;
  Testutil.check_int "reset" 0 (Stats.Counter.value c)

let test_distribution () =
  let d = Stats.Distribution.create () in
  List.iter (Stats.Distribution.add d) [ 1.0; 2.0; 3.0; 4.0 ];
  Testutil.check_int "count" 4 (Stats.Distribution.count d);
  Testutil.check_float_eps "mean" ~eps:1e-9 2.5 (Stats.Distribution.mean d);
  Testutil.check_float_eps "min" ~eps:1e-9 1.0 (Stats.Distribution.min d);
  Testutil.check_float_eps "max" ~eps:1e-9 4.0 (Stats.Distribution.max d);
  Testutil.check_float_eps "p50" ~eps:1e-9 2.0 (Stats.Distribution.percentile d 50.0);
  Testutil.check_float_eps "p100" ~eps:1e-9 4.0 (Stats.Distribution.percentile d 100.0);
  Testutil.check_float_eps "stddev" ~eps:1e-6 1.118034 (Stats.Distribution.stddev d)

let test_distribution_empty () =
  let d = Stats.Distribution.create () in
  Testutil.check_float_eps "mean 0" ~eps:1e-9 0.0 (Stats.Distribution.mean d);
  Testutil.check_float_eps "p99 0" ~eps:1e-9 0.0 (Stats.Distribution.percentile d 99.0)

let test_distribution_percentile_edges () =
  (* single sample: every percentile is that sample *)
  let d = Stats.Distribution.create () in
  Stats.Distribution.add d 7.5;
  Testutil.check_float_eps "single p0" ~eps:1e-9 7.5 (Stats.Distribution.percentile d 0.0);
  Testutil.check_float_eps "single p50" ~eps:1e-9 7.5 (Stats.Distribution.percentile d 50.0);
  Testutil.check_float_eps "single p100" ~eps:1e-9 7.5 (Stats.Distribution.percentile d 100.0);
  (* unsorted insertion: p0 is the min, p100 the max *)
  let d = Stats.Distribution.create () in
  List.iter (Stats.Distribution.add d) [ 5.0; 1.0; 3.0 ];
  Testutil.check_float_eps "p0 is min" ~eps:1e-9 1.0 (Stats.Distribution.percentile d 0.0);
  Testutil.check_float_eps "p100 is max" ~eps:1e-9 5.0 (Stats.Distribution.percentile d 100.0);
  Testutil.check_float_eps "p50 mid" ~eps:1e-9 3.0 (Stats.Distribution.percentile d 50.0);
  (* empty: everything is 0, including the endpoints *)
  let d = Stats.Distribution.create () in
  Testutil.check_float_eps "empty p0" ~eps:1e-9 0.0 (Stats.Distribution.percentile d 0.0);
  Testutil.check_float_eps "empty p100" ~eps:1e-9 0.0 (Stats.Distribution.percentile d 100.0)

let test_series () =
  let s = Stats.Series.create ~name:"s" () in
  Stats.Series.add s ~time:10 1.0;
  Stats.Series.add s ~time:20 2.0;
  Testutil.check_int "length" 2 (Stats.Series.length s);
  Testutil.check_string "name" "s" (Stats.Series.name s);
  (match Stats.Series.last s with
   | Some (t, v) ->
     Testutil.check_int "last time" 20 t;
     Testutil.check_float_eps "last val" ~eps:1e-9 2.0 v
   | None -> Alcotest.fail "no last");
  Testutil.check_int "points" 2 (Array.length (Stats.Series.points s))

let test_series_rate () =
  let s = Stats.Series.create () in
  (* 4 events of value 1 in the first second, 2 in the second *)
  List.iter (fun t -> Stats.Series.add s ~time:t 1.0)
    [ 0; 100_000_000; 200_000_000; 300_000_000; 1_100_000_000; 1_200_000_000 ];
  match Stats.Series.rate_per_sec s ~bucket:(Time.sec 1) with
  | [ (0, r1); (1_000_000_000, r2) ] ->
    Testutil.check_float_eps "rate1" ~eps:1e-9 4.0 r1;
    Testutil.check_float_eps "rate2" ~eps:1e-9 2.0 r2
  | other -> Alcotest.failf "unexpected buckets (%d)" (List.length other)

(* ---------------- Trace ---------------- *)

let test_trace_basic () =
  let t = Trace.create ~capacity:10 ~min_level:Trace.Debug () in
  Trace.record t ~time:1 Trace.Info ~subsystem:"x" "one";
  Trace.recordf t ~time:2 Trace.Warn ~subsystem:"y" "two %d" 2;
  Testutil.check_int "count" 2 (Trace.count t);
  (match Trace.entries t with
   | [ e1; e2 ] ->
     Testutil.check_string "msg1" "one" e1.Trace.message;
     Testutil.check_string "msg2" "two 2" e2.Trace.message
   | _ -> Alcotest.fail "entries");
  Trace.clear t;
  Testutil.check_int "cleared" 0 (Trace.count t)

let test_trace_ring () =
  let t = Trace.create ~capacity:3 ~min_level:Trace.Debug () in
  for i = 1 to 5 do
    Trace.record t ~time:i Trace.Info ~subsystem:"r" (string_of_int i)
  done;
  match Trace.entries t with
  | [ a; b; c ] ->
    Testutil.check_string "oldest kept" "3" a.Trace.message;
    Testutil.check_string "mid" "4" b.Trace.message;
    Testutil.check_string "newest" "5" c.Trace.message
  | l -> Alcotest.failf "ring size %d" (List.length l)

let test_trace_level_filter () =
  let t = Trace.create ~min_level:Trace.Warn () in
  Trace.record t ~time:1 Trace.Debug ~subsystem:"f" "nope";
  Trace.record t ~time:1 Trace.Info ~subsystem:"f" "nope";
  Trace.record t ~time:1 Trace.Error ~subsystem:"f" "yes";
  Testutil.check_int "filtered" 1 (Trace.count t)

let test_trace_null () =
  let t = Trace.null in
  Trace.record t ~time:1 Trace.Error ~subsystem:"n" "dropped";
  Testutil.check_int "record dropped" 0 (Trace.count t);
  (* the null sink is contractually immutable: level changes are no-ops *)
  Trace.set_min_level t Trace.Debug;
  Trace.record t ~time:2 Trace.Debug ~subsystem:"n" "still dropped";
  Testutil.check_int "still empty" 0 (Trace.count t);
  Testutil.check_int "no entries" 0 (List.length (Trace.entries t));
  Trace.clear t;
  Testutil.check_int "clear is a no-op" 0 (Trace.count t)

let () =
  Alcotest.run "eventsim"
    [ ( "heap",
        [ Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "pop empty" `Quick test_heap_pop_empty;
          Alcotest.test_case "clear & iter" `Quick test_heap_clear_iter;
          prop_heap_sorts ] );
      ( "engine",
        [ Alcotest.test_case "time order" `Quick test_engine_order;
          Alcotest.test_case "FIFO at same instant" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "pending count exact" `Quick test_engine_pending_count_exact;
          Alcotest.test_case "FIFO with cancellations" `Quick test_engine_fifo_with_cancels;
          prop_cancel_fired_handle_generation_safe;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "extend: chain is one event" `Quick test_engine_extend_chain;
          Alcotest.test_case "extend: zero delay fires after the chain" `Quick
            test_engine_extend_zero_delay_after_chain;
          Alcotest.test_case "extend: refusals" `Quick test_engine_extend_refusals ] );
      ( "timer",
        [ Alcotest.test_case "recurring" `Quick test_timer_every;
          Alcotest.test_case "stop from callback" `Quick test_timer_stop_from_callback;
          Alcotest.test_case "start delay" `Quick test_timer_start_delay;
          Alcotest.test_case "one-shot" `Quick test_timer_after;
          Alcotest.test_case "one-shot stopped" `Quick test_timer_after_stopped;
          Alcotest.test_case "invalid period" `Quick test_timer_invalid ] );
      ( "time",
        [ Alcotest.test_case "unit conversions" `Quick test_time_units;
          Alcotest.test_case "pretty printing" `Quick test_time_pp ] );
      ( "prng",
        [ Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "invalid bound" `Quick test_prng_bounds_invalid;
          Alcotest.test_case "pick & sample" `Quick test_prng_pick_sample;
          Alcotest.test_case "float & exponential" `Quick test_prng_float_exponential;
          prop_prng_int_bound;
          prop_prng_int_in;
          prop_prng_shuffle_permutes ] );
      ( "stats",
        [ Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "distribution" `Quick test_distribution;
          Alcotest.test_case "empty distribution" `Quick test_distribution_empty;
          Alcotest.test_case "percentile edge cases" `Quick test_distribution_percentile_edges;
          Alcotest.test_case "series" `Quick test_series;
          Alcotest.test_case "series rate buckets" `Quick test_series_rate ] );
      ( "trace",
        [ Alcotest.test_case "record & entries" `Quick test_trace_basic;
          Alcotest.test_case "ring buffer wraps" `Quick test_trace_ring;
          Alcotest.test_case "level filter" `Quick test_trace_level_filter;
          Alcotest.test_case "null sink contract" `Quick test_trace_null ] ) ]
