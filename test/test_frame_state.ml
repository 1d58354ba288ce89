(* Unit tests for frame states: value traversal, virtual-object
   descriptors, and the shapes produced by the builder and rewritten by
   partial escape analysis. *)

open Pea_bytecode
open Pea_ir

let dummy_method () =
  let program =
    Link.compile_source "class Main { static int main() { return 0; } }"
  in
  Link.entry_exn program

let cls_of () =
  let program =
    Link.compile_source ~require_main:false "class P { int a; P next; }"
  in
  Link.find_class program "P"

let sample_fs () : Frame_state.t =
  let m = dummy_method () in
  let p = cls_of () in
  let inner : Frame_state.t =
    {
      fs_method = m;
      fs_bci = 7;
      fs_locals = [| F_node 1; F_virtual 0; F_const (Frame_state.Cint 5) |];
      fs_stack = [ F_node 2 ];
      fs_locks = [ F_virtual 0 ];
      fs_outer = None;
      fs_virtuals =
        [ (0, { vd_shape = Obj_shape p; vd_fields = [| F_node 3; F_virtual 0 |]; vd_lock = 1 }) ];
    }
  in
  { inner with fs_outer = Some { inner with fs_bci = 3; fs_outer = None; fs_virtuals = [] } }

let test_depth () =
  Alcotest.(check int) "two frames" 2 (Frame_state.depth (sample_fs ()))

let test_node_ids () =
  let ids = List.sort_uniq compare (Frame_state.node_ids (sample_fs ())) in
  (* nodes 1, 2 and 3 appear (3 via the descriptor), in both frames *)
  Alcotest.(check (list int)) "ids" [ 1; 2; 3 ] ids

let test_map_values () =
  let fs = sample_fs () in
  let shifted =
    Frame_state.map_values
      (function Frame_state.F_node n -> Frame_state.F_node (n + 100) | v -> v)
      fs
  in
  let ids = List.sort_uniq compare (Frame_state.node_ids shifted) in
  Alcotest.(check (list int)) "shifted ids" [ 101; 102; 103 ] ids;
  (* virtual references and constants are untouched *)
  (match shifted.Frame_state.fs_locals.(1) with
  | Frame_state.F_virtual 0 -> ()
  | _ -> Alcotest.fail "virtual reference changed");
  match shifted.Frame_state.fs_locals.(2) with
  | Frame_state.F_const (Frame_state.Cint 5) -> ()
  | _ -> Alcotest.fail "constant changed"

let test_iter_covers_descriptors () =
  let count = ref 0 in
  Frame_state.iter_values (fun _ -> incr count) (sample_fs ());
  (* inner: 3 locals + 1 stack + 1 lock + 2 descriptor fields = 7;
     outer: 3 locals + 1 stack + 1 lock = 5 *)
  Alcotest.(check int) "all values visited" 12 !count

let test_pp_mentions_virtuals () =
  let s = Fmt.str "%a" Frame_state.pp (sample_fs ()) in
  let contains sub =
    let n = String.length sub in
    let rec loop i = i + n <= String.length s && (String.sub s i n = sub || loop (i + 1)) in
    loop 0
  in
  Alcotest.(check bool) "mentions virt0" true (contains "virt0");
  Alcotest.(check bool) "mentions lock depth" true (contains "/lock1")

(* Builder-produced frame states clear dead locals (liveness): a local
   that is never read after the side effect shows up as undef. *)
let test_dead_local_cleared () =
  let program =
    Link.compile_source
      "class Main {\n\
      \  static int g;\n\
      \  static int main() { int dead = 42; Main.g = 1; return Main.g; }\n\
       }"
  in
  let g = Builder.build (Link.entry_exn program) in
  let found = ref false in
  Graph.iter_blocks
    (fun b ->
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) ->
          match n.Node.op, n.Node.fs with
          | Node.Store_static _, Some fs ->
              found := true;
              Array.iter
                (fun v ->
                  match v with
                  | Frame_state.F_const Frame_state.Cundef -> ()
                  | Frame_state.F_node _ ->
                      Alcotest.fail "dead local survived in the frame state"
                  | _ -> ())
                fs.Frame_state.fs_locals
          | _ -> ())
        b.Graph.instrs)
    g;
  Alcotest.(check bool) "store found" true !found

(* ...and live locals survive. *)
let test_live_local_kept () =
  let program =
    Link.compile_source
      "class Main {\n\
      \  static int g;\n\
      \  static int main() { int live = 42; Main.g = 1; return live; }\n\
       }"
  in
  let g = Builder.build (Link.entry_exn program) in
  let found = ref false in
  Graph.iter_blocks
    (fun b ->
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) ->
          match n.Node.op, n.Node.fs with
          | Node.Store_static _, Some fs ->
              let has_live =
                Array.exists
                  (function Frame_state.F_node _ -> true | _ -> false)
                  fs.Frame_state.fs_locals
              in
              found := true;
              Alcotest.(check bool) "live local kept" true has_live
          | _ -> ())
        b.Graph.instrs)
    g;
  Alcotest.(check bool) "store found" true !found

(* ------------------------------------------------------------------ *)
(* Sharing: rewrites rebuild only what changes                          *)
(* ------------------------------------------------------------------ *)

let test_map_values_identity_shares () =
  let fs = sample_fs () in
  Alcotest.(check bool) "has an outer frame and descriptors" true
    (fs.Frame_state.fs_outer <> None && fs.Frame_state.fs_virtuals <> []);
  Alcotest.(check bool) "identity map returns the same state" true
    (Frame_state.map_values Fun.id fs == fs);
  (* a change in the outer frame only copies the path to it *)
  let outer_only =
    Frame_state.map_values
      (function Frame_state.F_node 2 -> Frame_state.F_node 42 | v -> v)
      { fs with Frame_state.fs_stack = [] }
  in
  let inner_locals = fs.Frame_state.fs_locals in
  Alcotest.(check bool) "unchanged locals shared" true
    (outer_only.Frame_state.fs_locals == inner_locals);
  match outer_only.Frame_state.fs_outer with
  | Some o ->
      Alcotest.(check bool) "outer stack rebuilt" true
        (o.Frame_state.fs_stack = [ Frame_state.F_node 42 ]);
      Alcotest.(check bool) "outer locals shared" true (o.Frame_state.fs_locals == inner_locals)
  | None -> Alcotest.fail "outer frame lost"

(* A compiled graph with inlined frames (outer chains) and scalar-replaced
   objects (descriptors), on the default pipeline. *)
let sharing_graph () =
  let program =
    Link.compile_source ~require_main:false
      "class P { int a; }\n\
       class C {\n\
      \  static int g;\n\
      \  static int id(int x) { C.g = x; return x; }\n\
      \  static int f(int x, boolean cold) {\n\
      \    P p = new P();\n\
      \    p.a = x;\n\
      \    int y = C.id(x);\n\
      \    if (cold) { C.g = p.a; }\n\
      \    return p.a + y;\n\
      \  }\n\
       }"
  in
  let f = Link.find_method program "C" "f" in
  let profile = Pea_rt.Profile.create program in
  (Pea_vm.Jit.compile Pea_vm.Jit.default_config program profile f).Pea_vm.Jit.graph

(* every frame state of [g] with a label: node states, block entry
   states and deopt states *)
let states (g : Graph.t) =
  let acc = ref [] in
  Graph.iter_blocks
    (fun b ->
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) -> Option.iter (fun fs -> acc := (n.Node.id, fs) :: !acc) n.Node.fs)
        b.Graph.instrs;
      Option.iter (fun fs -> acc := (-1 - b.Graph.b_id, fs) :: !acc) b.Graph.entry_fs;
      match b.Graph.term with
      | Graph.Deopt d -> acc := (-1000 - b.Graph.b_id, d.Graph.d_state) :: !acc
      | _ -> ())
    g;
  List.rev !acc

let all_nodes (g : Graph.t) =
  let acc = ref [] in
  Graph.iter_blocks
    (fun b ->
      List.iter (fun n -> acc := n :: !acc) b.Graph.phis;
      Pea_support.Dyn_array.iter (fun n -> acc := n :: !acc) b.Graph.instrs)
    g;
  !acc

let test_substitute_identity_shares () =
  let g = sharing_graph () in
  let ss = states g in
  Alcotest.(check bool) "some state has an outer frame" true
    (List.exists (fun (_, fs) -> fs.Frame_state.fs_outer <> None) ss);
  Alcotest.(check bool) "some state has descriptors" true
    (List.exists (fun (_, fs) -> fs.Frame_state.fs_virtuals <> []) ss);
  let nodes = all_nodes g in
  let before = List.map (fun (n : Node.t) -> (n, n.Node.op, n.Node.fs)) nodes in
  let terms = List.init (Graph.n_blocks g) (fun b -> (Graph.block g b).Graph.term) in
  Graph.substitute_uses g Fun.id;
  List.iter
    (fun ((n : Node.t), op, fs) ->
      Alcotest.(check bool) (Printf.sprintf "v%d op shared" n.Node.id) true (n.Node.op == op);
      Alcotest.(check bool) (Printf.sprintf "v%d state shared" n.Node.id) true (n.Node.fs == fs))
    before;
  List.iteri
    (fun b t ->
      Alcotest.(check bool) (Printf.sprintf "B%d terminator shared" b) true
        ((Graph.block g b).Graph.term == t))
    terms;
  List.iter2
    (fun (_, fs) (_, fs') -> Alcotest.(check bool) "state shared" true (fs == fs'))
    ss (states g)

let test_substitute_rebuilds_mentions_only () =
  let g = sharing_graph () in
  let ss = states g in
  let mentions x fs = List.mem x (Frame_state.node_ids fs) in
  (* an id some states mention and others do not *)
  let candidates = List.sort_uniq compare (List.concat_map (fun (_, fs) -> Frame_state.node_ids fs) ss) in
  let x =
    match
      List.find_opt
        (fun x ->
          List.exists (fun (_, fs) -> mentions x fs) ss
          && List.exists (fun (_, fs) -> not (mentions x fs)) ss)
        candidates
    with
    | Some x -> x
    | None -> Alcotest.fail "no id splits the states"
  in
  let y = Graph.n_nodes g + 7 in
  let ops = List.map (fun (n : Node.t) -> (n, n.Node.op)) (all_nodes g) in
  Graph.substitute_uses g (fun id -> if id = x then y else id);
  List.iter2
    (fun (label, fs) (label', fs') ->
      Alcotest.(check int) "same state order" label label';
      if mentions x fs then begin
        Alcotest.(check bool) (Printf.sprintf "state %d rebuilt" label) false (fs == fs');
        Alcotest.(check (list int))
          (Printf.sprintf "state %d rewritten" label)
          (List.map (fun id -> if id = x then y else id) (Frame_state.node_ids fs))
          (Frame_state.node_ids fs')
      end
      else Alcotest.(check bool) (Printf.sprintf "state %d shared" label) true (fs == fs'))
    ss (states g);
  List.iter
    (fun ((n : Node.t), op) ->
      let uses_x = ref false in
      Node.iter_operands (fun o -> if o = x then uses_x := true) op;
      Alcotest.(check bool) (Printf.sprintf "v%d op shared iff unaffected" n.Node.id)
        (not !uses_x) (n.Node.op == op))
    ops

let () =
  Alcotest.run "frame_state"
    [
      ( "frame_state",
        [
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "node ids" `Quick test_node_ids;
          Alcotest.test_case "map values" `Quick test_map_values;
          Alcotest.test_case "iter covers descriptors" `Quick test_iter_covers_descriptors;
          Alcotest.test_case "pp" `Quick test_pp_mentions_virtuals;
          Alcotest.test_case "dead local cleared" `Quick test_dead_local_cleared;
          Alcotest.test_case "live local kept" `Quick test_live_local_kept;
          Alcotest.test_case "identity map shares" `Quick test_map_values_identity_shares;
          Alcotest.test_case "identity substitution shares" `Quick test_substitute_identity_shares;
          Alcotest.test_case "substitution rebuilds mentions only" `Quick
            test_substitute_rebuilds_mentions_only;
        ] );
    ]
