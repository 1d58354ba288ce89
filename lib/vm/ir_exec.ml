(* A standalone evaluator for optimized IR graphs, used by tests and
   tools; the VM runs compiled code on the closure tier
   ({!Closure_compile}). Each IR operation costs roughly one cycle in the
   cost model (plus operation-specific costs), compared to the
   interpreter's dispatch overhead — this is what makes removed
   allocations, loads and monitor operations visible in the
   iterations/minute metric.

   It stays deliberately straightforward: it is the cost-model reference
   the closure tier is differentially tested against, graph by graph.

   Hitting a [Deopt] terminator raises {!Deoptimize}, which the closure
   tier raises too. *)

open Pea_bytecode
open Pea_ir
open Pea_rt
open Value

exception Deoptimize of Graph.deopt * (Node.node_id -> Value.value)

let const_value (c : Node.const) =
  match c with
  | Node.Cint n -> Vint n
  | Node.Cbool b -> Vbool b
  | Node.Cnull | Node.Cundef -> Vnull

let trap fmt = Format.kasprintf (fun m -> raise (Interp.Trap m)) fmt

let as_int = function Vint n -> n | v -> trap "expected int, found %s" (string_of_value v)

let as_bool = function Vbool b -> b | v -> trap "expected boolean, found %s" (string_of_value v)

(* ------------------------------------------------------------------ *)
(* Per-graph preparation                                               *)
(* ------------------------------------------------------------------ *)

(* Phi routing, resolved once per compiled graph instead of on every block
   entry of every invocation: for each block with phis, [pb_route] maps a
   predecessor block id to its positional index in [preds], and
   [pb_srcs.(idx)] lists the phi input ids for that edge. [pb_tmp] is the
   scratch buffer of the parallel move; sharing it across invocations is
   safe because the move performs no calls (so no reentrancy) and the VM
   is single-threaded. *)
type phi_block = {
  pb_dsts : int array; (* phi node ids, in phi order *)
  pb_srcs : int array array; (* per predecessor index, one input id per phi *)
  pb_route : int array; (* predecessor block id -> index; -1 when absent *)
  pb_tmp : Value.value array;
}

type prepared = {
  p_graph : Graph.t;
  p_phis : phi_block option array; (* indexed by block id *)
  p_sites : (int * int) array; (* per node id: (method id, bci) site *)
  p_bcis : int array; (* per block id: representative entry bci *)
}

(* Bytecode-site attribution tables for a compiled graph, shared by both
   execution tiers and by the sampling profiler: per node the nearest
   enclosing (method id, bci) — the node's own frame state if it has one
   (innermost frame), else the last frame state seen earlier in its
   block, else the block entry state — and per block a representative
   bci for safepoint samples. (-1, -1) / -1 when the graph carries no
   states at all. *)
let site_tables (g : Graph.t) : (int * int) array * int array =
  let of_fs (fs : Frame_state.t) =
    (fs.Frame_state.fs_method.Classfile.mth_id, fs.Frame_state.fs_bci)
  in
  let sites = Array.make (max (Graph.n_nodes g) 1) (-1, -1) in
  let bcis = Array.make (max (Graph.n_blocks g) 1) (-1) in
  for bid = 0 to Graph.n_blocks g - 1 do
    let b = Graph.block g bid in
    let entry = Option.map of_fs b.Graph.entry_fs in
    bcis.(bid) <- (match entry with Some (_, bci) -> bci | None -> -1);
    let cur = ref (Option.value ~default:(-1, -1) entry) in
    List.iter (fun (p : Node.t) -> sites.(p.Node.id) <- !cur) b.Graph.phis;
    Pea_support.Dyn_array.iter
      (fun (n : Node.t) ->
        (match n.Node.fs with Some fs -> cur := of_fs fs | None -> ());
        sites.(n.Node.id) <- !cur)
      b.Graph.instrs
  done;
  (sites, bcis)

let prepare (g : Graph.t) : prepared =
  let n = Graph.n_blocks g in
  let phis = Array.make n None in
  for bid = 0 to n - 1 do
    let b = Graph.block g bid in
    match b.Graph.phis with
    | [] -> ()
    | ps ->
        let dsts = Array.of_list (List.map (fun (p : Node.t) -> p.Node.id) ps) in
        let input i (p : Node.t) =
          match p.Node.op with Node.Phi ph -> ph.Node.inputs.(i) | _ -> assert false
        in
        let srcs =
          Array.init (List.length b.Graph.preds) (fun i ->
              Array.of_list (List.map (input i) ps))
        in
        let route = Array.make n (-1) in
        (* on a duplicated edge keep the first index, like the linear
           search this replaces *)
        List.iteri (fun i pred -> if route.(pred) < 0 then route.(pred) <- i) b.Graph.preds;
        phis.(bid) <-
          Some { pb_dsts = dsts; pb_srcs = srcs; pb_route = route; pb_tmp = Array.make (Array.length dsts) Vnull }
  done;
  let sites, bcis = site_tables g in
  { p_graph = g; p_phis = phis; p_sites = sites; p_bcis = bcis }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let run_prepared (env : Interp.env) (p : prepared) (args : Value.value list) :
    Value.value option =
  let g = p.p_graph in
  let stats = env.Interp.stats in
  let regs = Array.make (max (Graph.n_nodes g) 1) Vnull in
  (* bind parameters with one paired walk (extra arguments are ignored,
     as the interpreter does with oversized locals) *)
  let rec bind (params : Node.t list) args =
    match (params, args) with
    | [], _ -> ()
    | p :: ps, v :: vs ->
        regs.(p.Node.id) <- v;
        bind ps vs
    | p :: _, [] ->
        ignore p;
        trap "missing argument for %s" (Classfile.qualified_name g.Graph.g_method)
  in
  bind g.Graph.params args;
  let charge c = Stats.add stats Stats.cycles c in
  let shadow = Option.is_some env.Interp.hooks in
  (* heap-profiler attribution; only evaluated when profiling is on *)
  let record_alloc (n : Node.t) kind cls bytes =
    let mid, bci = p.p_sites.(n.Node.id) in
    Pea_obs.Profile_heap.record ~mid ~bci ~cls ~kind ~bytes
  in
  (* one (value list) allocation per call, no intermediate array *)
  let arg_values arg_ids = Array.fold_right (fun id acc -> regs.(id) :: acc) arg_ids [] in
  let eval (n : Node.t) =
    Stats.incr stats Stats.compiled_ops;
    charge Cost.compiled_op;
    let v id = regs.(id) in
    match n.Node.op with
    | Node.Const c -> regs.(n.Node.id) <- const_value c
    | Node.Param _ -> () (* already set *)
    | Node.Phi _ -> assert false
    | Node.Arith (k, a, b) ->
        let a = as_int (v a) and b = as_int (v b) in
        let r =
          match k with
          | Node.Add -> a + b
          | Node.Sub -> a - b
          | Node.Mul -> a * b
          | Node.Div -> if b = 0 then trap "division by zero" else a / b
          | Node.Rem -> if b = 0 then trap "division by zero" else a mod b
        in
        regs.(n.Node.id) <- Vint r
    | Node.Neg a -> regs.(n.Node.id) <- Vint (-as_int (v a))
    | Node.Not a -> regs.(n.Node.id) <- Vbool (not (as_bool (v a)))
    | Node.Cmp (c, a, b) ->
        let a = as_int (v a) and b = as_int (v b) in
        let r =
          match c with
          | Classfile.Clt -> a < b
          | Classfile.Cle -> a <= b
          | Classfile.Cgt -> a > b
          | Classfile.Cge -> a >= b
          | Classfile.Ceq -> a = b
          | Classfile.Cne -> a <> b
        in
        regs.(n.Node.id) <- Vbool r
    | Node.RefCmp (c, a, b) ->
        let eq = equal_value (v a) (v b) in
        regs.(n.Node.id) <- Vbool (match c with Classfile.AEq -> eq | Classfile.ANe -> not eq)
    | Node.New cls ->
        if Pea_obs.Profile_heap.enabled () && not shadow then
          record_alloc n Pea_obs.Profile_heap.K_alloc cls.Classfile.cls_name
            (Value.object_bytes cls);
        regs.(n.Node.id) <- Vobj (Heap.alloc_object env.Interp.heap cls)
    | Node.Alloc (cls, field_values) ->
        if Pea_obs.Profile_heap.enabled () && not shadow then
          record_alloc n Pea_obs.Profile_heap.K_alloc cls.Classfile.cls_name
            (Value.object_bytes cls);
        let o = Heap.alloc_object env.Interp.heap cls in
        Array.iteri (fun i fv -> o.o_fields.(i) <- v fv) field_values;
        regs.(n.Node.id) <- Vobj o
    | Node.Alloc_array (elem, elem_values) -> (
        match Heap.alloc_array env.Interp.heap elem (Array.length elem_values) with
        | arr ->
            if Pea_obs.Profile_heap.enabled () && not shadow then
              record_alloc n Pea_obs.Profile_heap.K_alloc
                (Pea_mjava.Ast.string_of_ty elem ^ "[]")
                (Value.array_bytes elem (Array.length elem_values));
            Array.iteri (fun i fv -> arr.a_elems.(i) <- v fv) elem_values;
            regs.(n.Node.id) <- Varr arr
        | exception Heap.Negative_array_size k -> trap "negative array size %d" k)
    | Node.Stack_alloc (k, cls, field_values) ->
        (* stack object: real object, no heap allocation charge. Scratch
           objects die with the call they back; frame-bounded ones live
           in the frame's stack region until frame pop *)
        if Pea_obs.Profile_heap.enabled () && not shadow then
          record_alloc n
            (match k with
            | Node.Sk_scratch -> Pea_obs.Profile_heap.K_scratch
            | Node.Sk_frame -> Pea_obs.Profile_heap.K_stack)
            cls.Classfile.cls_name (Value.object_bytes cls);
        let o =
          match k with
          | Node.Sk_scratch -> Heap.alloc_object_scratch env.Interp.heap cls
          | Node.Sk_frame -> Heap.alloc_object_stack env.Interp.heap cls
        in
        Array.iteri (fun i fv -> o.o_fields.(i) <- v fv) field_values;
        regs.(n.Node.id) <- Vobj o
    | Node.Stack_alloc_array (k, elem, elem_values) ->
        if Pea_obs.Profile_heap.enabled () && not shadow then
          record_alloc n
            (match k with
            | Node.Sk_scratch -> Pea_obs.Profile_heap.K_scratch
            | Node.Sk_frame -> Pea_obs.Profile_heap.K_stack)
            (Pea_mjava.Ast.string_of_ty elem ^ "[]")
            (Value.array_bytes elem (Array.length elem_values));
        let arr =
          match k with
          | Node.Sk_scratch ->
              Heap.alloc_array_scratch env.Interp.heap elem (Array.length elem_values)
          | Node.Sk_frame -> Heap.alloc_array_stack env.Interp.heap elem (Array.length elem_values)
        in
        Array.iteri (fun i fv -> arr.a_elems.(i) <- v fv) elem_values;
        regs.(n.Node.id) <- Varr arr
    | Node.New_array (elem, len) -> (
        match Heap.alloc_array env.Interp.heap elem (as_int (v len)) with
        | arr ->
            if Pea_obs.Profile_heap.enabled () && not shadow then
              record_alloc n Pea_obs.Profile_heap.K_alloc
                (Pea_mjava.Ast.string_of_ty elem ^ "[]")
                (Value.array_bytes elem (Array.length arr.a_elems));
            regs.(n.Node.id) <- Varr arr
        | exception Heap.Negative_array_size k -> trap "negative array size %d" k)
    | Node.Load_field (o, f) -> (
        charge Cost.field_access;
        match v o with
        | Vobj obj -> regs.(n.Node.id) <- obj.o_fields.(f.Classfile.fld_offset)
        | Vnull -> trap "null dereference reading %s" f.Classfile.fld_name
        | _ -> trap "field load on a non-object")
    | Node.Store_field (o, f, x) -> (
        charge Cost.field_access;
        match v o with
        | Vobj obj -> obj.o_fields.(f.Classfile.fld_offset) <- v x
        | Vnull -> trap "null dereference writing %s" f.Classfile.fld_name
        | _ -> trap "field store on a non-object")
    | Node.Load_static sf ->
        charge Cost.static_access;
        regs.(n.Node.id) <- env.Interp.globals.(sf.Classfile.sf_index)
    | Node.Store_static (sf, x) ->
        charge Cost.static_access;
        env.Interp.globals.(sf.Classfile.sf_index) <- v x
    | Node.Array_load (a, i) -> (
        charge Cost.array_access;
        match v a with
        | Varr arr ->
            let idx = as_int (v i) in
            if idx < 0 || idx >= Array.length arr.a_elems then
              trap "array index %d out of bounds" idx;
            regs.(n.Node.id) <- arr.a_elems.(idx)
        | Vnull -> trap "null dereference at array load"
        | _ -> trap "array load on a non-array")
    | Node.Array_store (a, i, x) -> (
        charge Cost.array_access;
        match v a with
        | Varr arr ->
            let idx = as_int (v i) in
            if idx < 0 || idx >= Array.length arr.a_elems then
              trap "array index %d out of bounds" idx;
            arr.a_elems.(idx) <- v x
        | Vnull -> trap "null dereference at array store"
        | _ -> trap "array store on a non-array")
    | Node.Array_length a -> (
        match v a with
        | Varr arr -> regs.(n.Node.id) <- Vint (Array.length arr.a_elems)
        | Vnull -> trap "null dereference at arraylength"
        | _ -> trap "arraylength on a non-array")
    | Node.Monitor_enter a -> (
        match v a with
        | Vnull -> trap "monitorenter on null"
        | x -> (
            match Heap.monitor_enter env.Interp.heap x with
            | () -> ()
            | exception Heap.Unbalanced_monitor msg -> trap "%s" msg))
    | Node.Monitor_exit a -> (
        match v a with
        | Vnull -> trap "monitorexit on null"
        | x -> (
            match Heap.monitor_exit env.Interp.heap x with
            | () -> ()
            | exception Heap.Unbalanced_monitor msg -> trap "%s" msg))
    | Node.Invoke (kind, callee, arg_ids) -> (
        charge Cost.invoke;
        let call_args = arg_values arg_ids in
        match kind with
        | Node.Special ->
            (match call_args with
            | Vnull :: _ -> trap "null receiver in constructor call"
            | _ -> ());
            ignore (env.Interp.on_invoke callee call_args)
        | Node.Static -> (
            match env.Interp.on_invoke callee call_args with
            | Some r -> regs.(n.Node.id) <- r
            | None -> ())
        | Node.Virtual -> (
            let recv = match call_args with r :: _ -> r | [] -> trap "missing receiver" in
            let target = Interp.dispatch_target recv callee in
            match env.Interp.on_invoke target call_args with
            | Some r -> regs.(n.Node.id) <- r
            | None -> ()))
    | Node.Instance_of (a, cls) ->
        regs.(n.Node.id) <- Vbool (Interp.value_instanceof (v a) cls)
    | Node.Has_class (a, cls) ->
        (* exact-class guard: no subclass walk, false for null and arrays *)
        regs.(n.Node.id) <-
          Vbool
            (match v a with
            | Vobj o -> o.o_cls.Classfile.cls_id = cls.Classfile.cls_id
            | _ -> false)
    | Node.Check_cast (a, cls) -> (
        match v a with
        | Vnull -> regs.(n.Node.id) <- Vnull
        | x ->
            if Interp.value_instanceof x cls then regs.(n.Node.id) <- x
            else trap "cannot cast %s to %s" (string_of_value x) cls.Classfile.cls_name)
    | Node.Null_check a -> ( match v a with Vnull -> trap "null dereference" | _ -> ())
    | Node.Print a -> env.Interp.on_print (v a)
  in
  let rec exec prev_bid bid =
    let b = Graph.block g bid in
    (* profiler safepoint at block entry: phi routing charges no cycles,
       so polling here and after the closure tier's edge moves read the
       same clock value *)
    if Pea_obs.Profile_cpu.enabled () && not shadow then
      Pea_obs.Profile_cpu.poll p.p_bcis.(bid);
    (* route phis through the precomputed (pred, block) edge tables *)
    (match p.p_phis.(bid) with
    | None -> ()
    | Some pb ->
        let idx = if prev_bid >= 0 then pb.pb_route.(prev_bid) else -1 in
        if idx < 0 then trap "phi resolution: B%d is not a predecessor of B%d" prev_bid bid;
        let srcs = pb.pb_srcs.(idx) in
        let tmp = pb.pb_tmp in
        for i = 0 to Array.length srcs - 1 do
          tmp.(i) <- regs.(srcs.(i))
        done;
        let dsts = pb.pb_dsts in
        for i = 0 to Array.length dsts - 1 do
          regs.(dsts.(i)) <- tmp.(i)
        done);
    Pea_support.Dyn_array.iter eval b.Graph.instrs;
    match b.Graph.term with
    | Graph.Goto t -> exec bid t
    | Graph.If { cond; tru; fls; _ } ->
        charge Cost.compiled_op;
        if as_bool regs.(cond) then exec bid tru else exec bid fls
    | Graph.Return None -> None
    | Graph.Return (Some x) -> Some regs.(x)
    | Graph.Deopt d -> raise (Deoptimize (d, fun id -> regs.(id)))
    | Graph.Trap msg -> trap "%s" msg
    | Graph.Unreachable -> trap "reached an Unreachable terminator"
  in
  exec (-1) Graph.entry_id

let run env g args = run_prepared env (prepare g) args
