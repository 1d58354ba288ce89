(* The closure execution tier, the VM's only compiled executor: a
   one-time translation of an optimized IR graph into OCaml closures.

   A graph walker ({!Ir_exec}) is itself an interpreter — every invocation
   re-matches on every [Node.op], routes phis on block entry and rebuilds
   argument lists per call. This tier performs the classic next step from
   the JIT literature (it is the move Graal makes when it hands IR to a
   backend): all of that work happens once, at closure-compile time.

     - Every instruction that does work becomes a pre-bound
       [frame -> unit] step with its operands, field offsets and class
       pointers resolved at compile time; the per-op [Node.op] match
       disappears. Constants and parameters emit no step: a [Const] is an
       operand fixed at translation time, which the operand readers, edge
       phi moves and the [Deoptimize] lookup return without touching the
       frame, and a parameter is bound at entry. Int/Int arithmetic and
       comparisons specialise on the operand shapes (register, register),
       (register, constant) and (constant, register).
     - A block runs its steps as one flat sequence, then a terminator
       closure; control transfers are (tail) calls through a per-graph
       closure table, so loops run in constant stack space. An [If] whose
       condition is the block's last typed [Cmp] evaluates the compare in
       the terminator (still writing the compare's slot) and branches on
       the result: a compare-and-branch.
     - Phi routing is precomputed per [(pred, block)] edge. An edge that
       moves one or two Int/Bool phis and no Ref phi moves them directly.
       Any other edge runs a parallel move through scratch buffers shared
       across invocations, which is safe because the move makes no calls
       (no reentrancy) and each VM runs on one domain at a time.
     - Virtual [Invoke] sites get a monomorphic inline cache seeded from
       the interpreter's receiver profile: the fast path is one class-id
       check against a pre-resolved target; a miss falls back to
       {!Interp.dispatch_target} and rebiases the cache.
     - Frames are pooled per compiled method across invocations instead
       of allocated per call (see the lifetime rules below).

   Typed frames. A frame is two register files: [iv] holds ints and
   booleans (as 0/1) unboxed, [rv] holds everything else as
   [Value.value]. Translation infers one kind per node — Int for integer
   constants, [Arith], [Neg] and [Array_length]; Bool for boolean
   constants, [Not], [Cmp], [RefCmp], [Instance_of] and [Has_class]; a
   normal-entry parameter takes the kind of its declared type; a phi is
   Int or Bool when all its inputs agree (an optimistic fixpoint); every
   other node is Ref: loads and invoke results (boxed in the heap
   already), [null] and [Cundef] (so deopt still rebuilds [Vnull]), and
   OSR parameters (whose locals may still be [Vnull]). Each node other
   than a constant owns exactly one slot in the file of its kind, so a
   frame holds fewer slots than the graph has nodes. Operand readers are
   chosen at translation time: Int/Int arithmetic and comparisons run on
   [iv] and constants directly; a Ref read as an int or boolean goes
   through [as_int]/[as_bool]; a Bool read as an int (only a corrupted
   graph has one) boxes first and traps with {!Ir_exec}'s text. Values
   are boxed only where they leave the frame: field, array and static
   stores, invoke arguments, [Return], [Print], allocation field values,
   Ref phis fed by an Int or Bool input, and the [Deoptimize] lookup
   closure. Booleans box to the two static [Vbool] constants.

   Cost accounting is bit-for-bit identical to the {!Ir_exec} reference,
   but resolved per segment at translation time instead of per operation.
   A block splits into segments: maximal runs of pure operations, each
   ended by at most one impure one. A pure operation cannot trap, call,
   allocate, touch the heap, the statics or a monitor, or record a
   profile or trace event: a constant, a parameter, Int/Int [Add], [Sub],
   [Mul], [Neg] and [Cmp], [Div] and [Rem] by a nonzero constant, [Not]
   of a Bool, [RefCmp], [Instance_of] and [Has_class]. Each segment
   charges its summed [compiled_ops] and cycles once, at its start, into
   the live counter cells ({!Stats.cells}) resolved once per
   translation; an [If]'s branch cycles fold into the block's last
   segment. {!Ir_exec} charges each operation before its body, and only a
   segment's last operation can trap or let anything read the counters
   (a call, an allocation's profile record, a trace event; the profiler
   polls at block entry and a [Deopt] ends the block), so every counter
   value seen there is the one the reference shows. Inline caches, typed
   frames and pooling are wall-clock optimizations only and add no model
   cycles.

   Frame lifetime rules: a frame is acquired from the pool on entry and
   released on normal return and on an MJ exception unwinding through
   this frame. A [Deopt] terminator is the delicate case: the
   [Deoptimize] exception carries a frame-backed lookup closure that
   {!Deopt.handle} consults after re-entrant interpreter execution, so the
   frame must survive until the handler finishes. When the caller passes
   a [?deopt] handler, [run] invokes it in-frame and releases the frame
   afterwards (the lookup closure is dead by then); without a handler the
   exception propagates and the frame leaks with it — the VM always
   passes a handler. Released frames keep their stale values; that is
   sound because SSA guarantees every read is dominated by a write in the
   same invocation, and frame states only reference dominating
   definitions (enforced by the IR checker). *)

open Pea_bytecode
open Pea_ir
open Pea_rt
open Value
module Event = Pea_obs.Event
module Trace = Pea_obs.Trace

type frame = { iv : int array; rv : Value.value array }

type kind = K_int | K_bool | K_ref

type code = {
  n_int : int;
  n_ref : int;
  binders : (frame -> Value.value -> unit) array; (* one per parameter, in order *)
  entry : frame -> Value.value option;
  mutable pool : frame list; (* free frames *)
  method_name : string; (* for trap messages *)
}

let trap fmt = Format.kasprintf (fun m -> raise (Interp.Trap m)) fmt

let as_int = function Vint n -> n | v -> trap "expected int, found %s" (string_of_value v)

let as_bool = function Vbool b -> b | v -> trap "expected boolean, found %s" (string_of_value v)

let box_bool b = if b then Vbool true else Vbool false

let ops_slot = Stats.slot Stats.compiled_ops

let cycles_slot = Stats.slot Stats.cycles

(* one segment's [ops] compiled ops and [cy] cycles, charged at its
   start *)
let[@inline] charge (cells : int array) ops cy =
  cells.(ops_slot) <- cells.(ops_slot) + ops;
  cells.(cycles_slot) <- cells.(cycles_slot) + cy

(* ------------------------------------------------------------------ *)
(* Kinds and slots                                                     *)
(* ------------------------------------------------------------------ *)

let op_kind (op : Node.op) =
  match op with
  | Node.Const (Node.Cint _) | Node.Arith _ | Node.Neg _ | Node.Array_length _ -> K_int
  | Node.Const (Node.Cbool _)
  | Node.Not _ | Node.Cmp _ | Node.RefCmp _ | Node.Instance_of _ | Node.Has_class _ ->
      K_bool
  | _ -> K_ref

let infer_kinds (g : Graph.t) : kind array =
  let n = max (Graph.n_nodes g) 1 in
  let kinds = Array.make n K_ref in
  let m = g.Graph.g_method in
  let param_kind i =
    let sig_index = if m.Classfile.mth_static then i else i - 1 in
    if g.Graph.g_osr_entry <> None || sig_index < 0 then K_ref
    else
      match List.nth_opt m.Classfile.mth_params sig_index with
      | Some Pea_mjava.Ast.Tint -> K_int
      | Some Pea_mjava.Ast.Tbool -> K_bool
      | _ -> K_ref
  in
  let set (nd : Node.t) =
    kinds.(nd.Node.id) <-
      (match nd.Node.op with Node.Param i -> param_kind i | op -> op_kind op)
  in
  List.iter set g.Graph.params;
  let phis = ref [] in
  Graph.iter_blocks
    (fun b ->
      phis := b.Graph.phis @ !phis;
      Pea_support.Dyn_array.iter set b.Graph.instrs)
    g;
  let phis = !phis in
  (* optimistic fixpoint over phis (which start out Ref in [kinds]): a
     [top] phi is not yet constrained and is the identity of the meet; a
     phi whose inputs disagree is Ref. Phis still unconstrained at the
     fixpoint (cycles with no other input) stay Ref, and the meet re-runs
     with them. *)
  let top = Array.make n false in
  List.iter (fun (p : Node.t) -> top.(p.Node.id) <- true) phis;
  let kind id =
    if id < 0 || id >= n then Some K_ref else if top.(id) then None else Some kinds.(id)
  in
  let meet a b =
    match (a, b) with None, k | k, None -> k | Some x, Some y -> Some (if x = y then x else K_ref)
  in
  let rec fix () =
    let changed = ref false in
    List.iter
      (fun (p : Node.t) ->
        match p.Node.op with
        | Node.Phi ph -> (
            match Array.fold_left (fun acc id -> meet acc (kind id)) None ph.Node.inputs with
            | Some k when top.(p.Node.id) || k <> kinds.(p.Node.id) ->
                top.(p.Node.id) <- false;
                kinds.(p.Node.id) <- k;
                changed := true
            | _ -> ())
        | _ -> ())
      phis;
    match List.filter (fun (p : Node.t) -> top.(p.Node.id)) phis with
    | _ when !changed -> fix ()
    | [] -> ()
    | stuck ->
        List.iter (fun (p : Node.t) -> top.(p.Node.id) <- false) stuck;
        fix ()
  in
  fix ();
  kinds

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* An Int operand as typed code reads it: a slot of the int file, a
   constant fixed at translation, or anything else (read through
   [read_i], which may trap). *)
type int_operand = Reg of int | Imm of int | Boxed

(* a typed compare as [x < y] or [x = y], with a negation flag *)
type cmp_op = Lt | Eq

(* [Cmp (c, a, b)] on two typed operands: [Cgt] and [Cle] swap them,
   [Cge], [Cle] and [Cne] negate (flag 1), and [Eq] keeps a constant on
   the right *)
let typed_cmp c a b =
  match (a, b) with
  | Boxed, _ | _, Boxed -> None
  | x, y ->
      let eq neg = match x with Imm _ -> (Eq, y, x, neg) | _ -> (Eq, x, y, neg) in
      Some
        (match c with
        | Classfile.Clt -> (Lt, x, y, 0)
        | Classfile.Cgt -> (Lt, y, x, 0)
        | Classfile.Cge -> (Lt, x, y, 1)
        | Classfile.Cle -> (Lt, y, x, 1)
        | Classfile.Ceq -> eq 0
        | Classfile.Cne -> eq 1)

(* the value an Int or Bool phi move reads from its source *)
let[@inline] int_value (iv : int array) = function
  | Reg s -> iv.(s)
  | Imm k -> k
  | Boxed -> assert false

let const_cmp op x y = match op with Lt -> x < y | Eq -> x = y

(* the compare's step: writes 0/1 into slot [d] *)
let cmp_step d (op, x, y, neg) : frame -> unit =
  match (op, x, y) with
  | Lt, Reg x, Reg y ->
      fun fr ->
        let iv = fr.iv in
        iv.(d) <- Bool.to_int (iv.(x) < iv.(y)) lxor neg
  | Lt, Reg x, Imm k ->
      fun fr ->
        let iv = fr.iv in
        iv.(d) <- Bool.to_int (iv.(x) < k) lxor neg
  | Lt, Imm k, Reg y ->
      fun fr ->
        let iv = fr.iv in
        iv.(d) <- Bool.to_int (k < iv.(y)) lxor neg
  | Eq, Reg x, Reg y ->
      fun fr ->
        let iv = fr.iv in
        iv.(d) <- Bool.to_int (iv.(x) = iv.(y)) lxor neg
  | Eq, Reg x, Imm k ->
      fun fr ->
        let iv = fr.iv in
        iv.(d) <- Bool.to_int (iv.(x) = k) lxor neg
  | op, Imm x, Imm y ->
      let r = Bool.to_int (const_cmp op x y) lxor neg in
      fun fr -> fr.iv.(d) <- r
  | _ -> assert false

(* the compare-and-branch: the compare's step, then a jump on its
   result (a negated compare jumps on the plain one, edges swapped) *)
let cmp_branch d (op, x, y, neg) et ef : frame -> Value.value option =
  let et, ef = if neg = 1 then (ef, et) else (et, ef) in
  match (op, x, y) with
  | Lt, Reg x, Reg y ->
      fun fr ->
        let iv = fr.iv in
        let r = iv.(x) < iv.(y) in
        iv.(d) <- Bool.to_int r lxor neg;
        if r then et fr else ef fr
  | Lt, Reg x, Imm k ->
      fun fr ->
        let iv = fr.iv in
        let r = iv.(x) < k in
        iv.(d) <- Bool.to_int r lxor neg;
        if r then et fr else ef fr
  | Lt, Imm k, Reg y ->
      fun fr ->
        let iv = fr.iv in
        let r = k < iv.(y) in
        iv.(d) <- Bool.to_int r lxor neg;
        if r then et fr else ef fr
  | Eq, Reg x, Reg y ->
      fun fr ->
        let iv = fr.iv in
        let r = iv.(x) = iv.(y) in
        iv.(d) <- Bool.to_int r lxor neg;
        if r then et fr else ef fr
  | Eq, Reg x, Imm k ->
      fun fr ->
        let iv = fr.iv in
        let r = iv.(x) = k in
        iv.(d) <- Bool.to_int r lxor neg;
        if r then et fr else ef fr
  | op, Imm x, Imm y ->
      let r = const_cmp op x y in
      let v = Bool.to_int r lxor neg and target = if r then et else ef in
      fun fr ->
        fr.iv.(d) <- v;
        target fr
  | _ -> assert false

let[@inline] enter cells bci ops cy =
  if Pea_obs.Profile_cpu.enabled () then Pea_obs.Profile_cpu.poll bci;
  charge cells ops cy

(* A block: the profiler safepoint at entry (edge phi moves charge no
   cycles, so the poll reads the clock value at block entry), the first
   segment's charge, the steps in order, then the terminator. *)
let block_closure cells ~bci ~ops ~cy (steps : (frame -> unit) array) term :
    frame -> Value.value option =
  match steps with
  | [||] when ops = 0 && cy = 0 ->
      fun fr ->
        if Pea_obs.Profile_cpu.enabled () then Pea_obs.Profile_cpu.poll bci;
        term fr
  | [||] ->
      fun fr ->
        enter cells bci ops cy;
        term fr
  | [| s |] ->
      fun fr ->
        enter cells bci ops cy;
        s fr;
        term fr
  | [| s1; s2 |] ->
      fun fr ->
        enter cells bci ops cy;
        s1 fr;
        s2 fr;
        term fr
  | _ ->
      fun fr ->
        enter cells bci ops cy;
        for i = 0 to Array.length steps - 1 do
          (Array.unsafe_get steps i) fr
        done;
        term fr

let compile (env : Interp.env) (g : Graph.t) : code =
  let meth = Classfile.qualified_name g.Graph.g_method in
  let stats = env.Interp.stats in
  let cells = Stats.cells stats in
  let heap = env.Interp.heap in
  let globals = env.Interp.globals in
  let profile = env.Interp.profile in
  let on_invoke = env.Interp.on_invoke in
  let on_print = env.Interp.on_print in
  let kinds = infer_kinds g in
  (* constants are operands: each is read as its value, fixed here *)
  let consts = Array.make (Array.length kinds) None in
  Graph.iter_blocks
    (fun b ->
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) ->
          match n.Node.op with
          | Node.Const (Node.Cbool b) -> consts.(n.Node.id) <- Some (box_bool b)
          | Node.Const c -> consts.(n.Node.id) <- Some (Ir_exec.const_value c)
          | _ -> ())
        b.Graph.instrs)
    g;
  (* one slot per non-constant node, numbered separately in each file *)
  let n_int = ref 0 and n_ref = ref 0 in
  let slots =
    Array.mapi
      (fun id k ->
        if consts.(id) <> None then -1
        else begin
          let counter = if k = K_ref then n_ref else n_int in
          let s = !counter in
          incr counter;
          s
        end)
      kinds
  in
  let slot id = slots.(id) in
  (* operand readers, chosen per node kind *)
  let read_v id : frame -> Value.value =
    match consts.(id) with
    | Some v -> fun _ -> v
    | None -> (
        let s = slot id in
        match kinds.(id) with
        | K_ref -> fun fr -> fr.rv.(s)
        | K_int -> fun fr -> Vint fr.iv.(s)
        | K_bool -> fun fr -> box_bool (fr.iv.(s) <> 0))
  in
  let read_i id : frame -> int =
    match consts.(id) with
    | Some (Vint k) -> fun _ -> k
    | Some v -> fun _ -> as_int v
    | None -> (
        let s = slot id in
        match kinds.(id) with
        | K_int -> fun fr -> fr.iv.(s)
        | K_ref -> fun fr -> as_int fr.rv.(s)
        | K_bool -> fun fr -> as_int (box_bool (fr.iv.(s) <> 0)))
  in
  let read_b id : frame -> bool =
    match consts.(id) with
    | Some (Vbool b) -> fun _ -> b
    | Some v -> fun _ -> as_bool v
    | None -> (
        let s = slot id in
        match kinds.(id) with
        | K_bool -> fun fr -> fr.iv.(s) <> 0
        | K_ref -> fun fr -> as_bool fr.rv.(s)
        | K_int -> fun fr -> as_bool (Vint fr.iv.(s)))
  in
  let int_operand id =
    match consts.(id) with
    | Some (Vint k) -> Imm k
    | Some _ -> Boxed
    | None -> if kinds.(id) = K_int then Reg (slot id) else Boxed
  in
  let typed id = int_operand id <> Boxed in
  let pure (n : Node.t) =
    match n.Node.op with
    | Node.Const _ | Node.Param _ | Node.RefCmp _ | Node.Instance_of _ | Node.Has_class _ -> true
    | Node.Arith ((Node.Add | Node.Sub | Node.Mul), a, b) | Node.Cmp (_, a, b) ->
        typed a && typed b
    | Node.Arith ((Node.Div | Node.Rem), a, b) -> (
        typed a && match int_operand b with Imm k -> k <> 0 | _ -> false)
    | Node.Neg a -> typed a
    | Node.Not a -> kinds.(a) = K_bool
    | _ -> false
  in
  (* the closure table control transfers jump through; filled below *)
  let bodies : (frame -> Value.value option) array =
    Array.make (Graph.n_blocks g) (fun _ -> trap "closure tier: jump into an uncompiled block")
  in
  let base = Cost.compiled_op in
  (* what {!Ir_exec} charges for one operation *)
  let cost (n : Node.t) =
    match n.Node.op with
    | Node.Load_field _ | Node.Store_field _ -> base + Cost.field_access
    | Node.Load_static _ | Node.Store_static _ -> base + Cost.static_access
    | Node.Array_load _ | Node.Array_store _ -> base + Cost.array_access
    | Node.Invoke _ -> base + Cost.invoke
    | _ -> base
  in
  (* bytecode-site attribution, pre-resolved like every other operand so
     the profiler checks below cost one bool load when profiling is off *)
  let sites, block_bcis = Ir_exec.site_tables g in
  let args_of readers fr =
    let rec go i acc = if i < 0 then acc else go (i - 1) (readers.(i) fr :: acc) in
    go (Array.length readers - 1) []
  in
  let fill dst readers fr =
    for i = 0 to Array.length readers - 1 do
      dst.(i) <- readers.(i) fr
    done
  in
  (* the step of an instruction; [None] for constants and parameters *)
  let compile_instr (n : Node.t) : (frame -> unit) option =
    let d = slot n.Node.id in
    let set_bool fr b = fr.iv.(d) <- Bool.to_int b in
    let step (f : frame -> unit) = Some f in
    match n.Node.op with
    | Node.Const _ | Node.Param _ -> None
    | Node.Phi _ -> assert false
    | Node.Arith (k, a, b) -> (
        let add_imm a k =
          step (fun fr ->
              let iv = fr.iv in
              iv.(d) <- iv.(a) + k)
        in
        let mul_imm a k =
          step (fun fr ->
              let iv = fr.iv in
              iv.(d) <- iv.(a) * k)
        in
        match (k, int_operand a, int_operand b) with
        | Node.Add, Reg a, Reg b ->
            step (fun fr ->
                let iv = fr.iv in
                iv.(d) <- iv.(a) + iv.(b))
        | Node.Add, Reg a, Imm k | Node.Add, Imm k, Reg a -> add_imm a k
        | Node.Sub, Reg a, Reg b ->
            step (fun fr ->
                let iv = fr.iv in
                iv.(d) <- iv.(a) - iv.(b))
        | Node.Sub, Reg a, Imm k -> add_imm a (-k)
        | Node.Sub, Imm k, Reg b ->
            step (fun fr ->
                let iv = fr.iv in
                iv.(d) <- k - iv.(b))
        | Node.Mul, Reg a, Reg b ->
            step (fun fr ->
                let iv = fr.iv in
                iv.(d) <- iv.(a) * iv.(b))
        | Node.Mul, Reg a, Imm k | Node.Mul, Imm k, Reg a -> mul_imm a k
        | Node.Div, Reg a, Imm k when k <> 0 ->
            step (fun fr ->
                let iv = fr.iv in
                iv.(d) <- iv.(a) / k)
        | Node.Rem, Reg a, Imm k when k <> 0 ->
            step (fun fr ->
                let iv = fr.iv in
                iv.(d) <- iv.(a) mod k)
        | _ ->
            let f =
              match k with
              | Node.Add -> ( + )
              | Node.Sub -> ( - )
              | Node.Mul -> ( * )
              | Node.Div -> fun x y -> if y = 0 then trap "division by zero" else x / y
              | Node.Rem -> fun x y -> if y = 0 then trap "division by zero" else x mod y
            in
            let ra = read_i a and rb = read_i b in
            step (fun fr ->
                let x = ra fr in
                let y = rb fr in
                fr.iv.(d) <- f x y))
    | Node.Neg a ->
        let ra = read_i a in
        step (fun fr -> fr.iv.(d) <- -ra fr)
    | Node.Not a ->
        let ra = read_b a in
        step (fun fr -> set_bool fr (not (ra fr)))
    | Node.Cmp (c, a, b) -> (
        match typed_cmp c (int_operand a) (int_operand b) with
        | Some t -> step (cmp_step d t)
        | None ->
            let f : int -> int -> bool =
              match c with
              | Classfile.Clt -> ( < )
              | Classfile.Cle -> ( <= )
              | Classfile.Cgt -> ( > )
              | Classfile.Cge -> ( >= )
              | Classfile.Ceq -> ( = )
              | Classfile.Cne -> ( <> )
            in
            let ra = read_i a and rb = read_i b in
            step (fun fr ->
                let x = ra fr in
                let y = rb fr in
                set_bool fr (f x y)))
    | Node.RefCmp (c, a, b) ->
        let ra = read_v a and rb = read_v b in
        let ne = c = Classfile.ANe in
        step (fun fr -> set_bool fr (equal_value (ra fr) (rb fr) <> ne))
    | Node.New cls ->
        let mid, bci = sites.(n.Node.id) in
        let cls_name = cls.Classfile.cls_name in
        let bytes = Value.object_bytes cls in
        step (fun fr ->
            if Pea_obs.Profile_heap.enabled () then
              Pea_obs.Profile_heap.record ~mid ~bci ~cls:cls_name
                ~kind:Pea_obs.Profile_heap.K_alloc ~bytes;
            fr.rv.(d) <- Vobj (Heap.alloc_object heap cls))
    | Node.Alloc (cls, field_values) ->
        let mid, bci = sites.(n.Node.id) in
        let cls_name = cls.Classfile.cls_name in
        let bytes = Value.object_bytes cls in
        let fields = Array.map read_v field_values in
        step (fun fr ->
            if Pea_obs.Profile_heap.enabled () then
              Pea_obs.Profile_heap.record ~mid ~bci ~cls:cls_name
                ~kind:Pea_obs.Profile_heap.K_alloc ~bytes;
            let o = Heap.alloc_object heap cls in
            fill o.o_fields fields fr;
            fr.rv.(d) <- Vobj o)
    | Node.Alloc_array (elem, elem_values) ->
        let len = Array.length elem_values in
        let mid, bci = sites.(n.Node.id) in
        let arr_name = Pea_mjava.Ast.string_of_ty elem ^ "[]" in
        let bytes = Value.array_bytes elem len in
        let elems = Array.map read_v elem_values in
        step (fun fr ->
            match Heap.alloc_array heap elem len with
            | arr ->
                if Pea_obs.Profile_heap.enabled () then
                  Pea_obs.Profile_heap.record ~mid ~bci ~cls:arr_name
                    ~kind:Pea_obs.Profile_heap.K_alloc ~bytes;
                fill arr.a_elems elems fr;
                fr.rv.(d) <- Varr arr
            | exception Heap.Negative_array_size k -> trap "negative array size %d" k)
    | Node.Stack_alloc (k, cls, field_values) ->
        let mid, bci = sites.(n.Node.id) in
        let cls_name = cls.Classfile.cls_name in
        let bytes = Value.object_bytes cls in
        let fields = Array.map read_v field_values in
        let kind, alloc =
          match k with
          | Node.Sk_scratch -> (Pea_obs.Profile_heap.K_scratch, Heap.alloc_object_scratch)
          | Node.Sk_frame -> (Pea_obs.Profile_heap.K_stack, Heap.alloc_object_stack)
        in
        step (fun fr ->
            if Pea_obs.Profile_heap.enabled () then
              Pea_obs.Profile_heap.record ~mid ~bci ~cls:cls_name ~kind ~bytes;
            let o = alloc heap cls in
            fill o.o_fields fields fr;
            fr.rv.(d) <- Vobj o)
    | Node.Stack_alloc_array (k, elem, elem_values) ->
        let len = Array.length elem_values in
        let mid, bci = sites.(n.Node.id) in
        let arr_name = Pea_mjava.Ast.string_of_ty elem ^ "[]" in
        let bytes = Value.array_bytes elem len in
        let elems = Array.map read_v elem_values in
        let kind, alloc =
          match k with
          | Node.Sk_scratch -> (Pea_obs.Profile_heap.K_scratch, Heap.alloc_array_scratch)
          | Node.Sk_frame -> (Pea_obs.Profile_heap.K_stack, Heap.alloc_array_stack)
        in
        step (fun fr ->
            if Pea_obs.Profile_heap.enabled () then
              Pea_obs.Profile_heap.record ~mid ~bci ~cls:arr_name ~kind ~bytes;
            let arr = alloc heap elem len in
            fill arr.a_elems elems fr;
            fr.rv.(d) <- Varr arr)
    | Node.New_array (elem, len) ->
        let mid, bci = sites.(n.Node.id) in
        let arr_name = Pea_mjava.Ast.string_of_ty elem ^ "[]" in
        let rlen = read_i len in
        step (fun fr ->
            match Heap.alloc_array heap elem (rlen fr) with
            | arr ->
                if Pea_obs.Profile_heap.enabled () then
                  Pea_obs.Profile_heap.record ~mid ~bci ~cls:arr_name
                    ~kind:Pea_obs.Profile_heap.K_alloc
                    ~bytes:(Value.array_bytes elem (Array.length arr.a_elems));
                fr.rv.(d) <- Varr arr
            | exception Heap.Negative_array_size k -> trap "negative array size %d" k)
    | Node.Load_field (o, f) ->
        let off = f.Classfile.fld_offset in
        let name = f.Classfile.fld_name in
        let ro = read_v o in
        step (fun fr ->
            match ro fr with
            | Vobj obj -> fr.rv.(d) <- obj.o_fields.(off)
            | Vnull -> trap "null dereference reading %s" name
            | _ -> trap "field load on a non-object")
    | Node.Store_field (o, f, x) ->
        let off = f.Classfile.fld_offset in
        let name = f.Classfile.fld_name in
        let ro = read_v o and rx = read_v x in
        step (fun fr ->
            match ro fr with
            | Vobj obj -> obj.o_fields.(off) <- rx fr
            | Vnull -> trap "null dereference writing %s" name
            | _ -> trap "field store on a non-object")
    | Node.Load_static sf ->
        let idx = sf.Classfile.sf_index in
        step (fun fr -> fr.rv.(d) <- globals.(idx))
    | Node.Store_static (sf, x) ->
        let idx = sf.Classfile.sf_index in
        let rx = read_v x in
        step (fun fr -> globals.(idx) <- rx fr)
    | Node.Array_load (a, i) ->
        let ra = read_v a and ri = read_i i in
        step (fun fr ->
            match ra fr with
            | Varr arr ->
                let idx = ri fr in
                if idx < 0 || idx >= Array.length arr.a_elems then
                  trap "array index %d out of bounds" idx;
                fr.rv.(d) <- arr.a_elems.(idx)
            | Vnull -> trap "null dereference at array load"
            | _ -> trap "array load on a non-array")
    | Node.Array_store (a, i, x) ->
        let ra = read_v a and ri = read_i i and rx = read_v x in
        step (fun fr ->
            match ra fr with
            | Varr arr ->
                let idx = ri fr in
                if idx < 0 || idx >= Array.length arr.a_elems then
                  trap "array index %d out of bounds" idx;
                arr.a_elems.(idx) <- rx fr
            | Vnull -> trap "null dereference at array store"
            | _ -> trap "array store on a non-array")
    | Node.Array_length a ->
        let ra = read_v a in
        step (fun fr ->
            match ra fr with
            | Varr arr -> fr.iv.(d) <- Array.length arr.a_elems
            | Vnull -> trap "null dereference at arraylength"
            | _ -> trap "arraylength on a non-array")
    | Node.Monitor_enter a ->
        let ra = read_v a in
        step (fun fr ->
            match ra fr with
            | Vnull -> trap "monitorenter on null"
            | x -> (
                match Heap.monitor_enter heap x with
                | () -> ()
                | exception Heap.Unbalanced_monitor msg -> trap "%s" msg))
    | Node.Monitor_exit a ->
        let ra = read_v a in
        step (fun fr ->
            match ra fr with
            | Vnull -> trap "monitorexit on null"
            | x -> (
                match Heap.monitor_exit heap x with
                | () -> ()
                | exception Heap.Unbalanced_monitor msg -> trap "%s" msg))
    | Node.Invoke (kind, callee, arg_ids) -> (
        let args = Array.map read_v arg_ids in
        match kind with
        | Node.Special ->
            step (fun fr ->
                let args = args_of args fr in
                (match args with
                | Vnull :: _ -> trap "null receiver in constructor call"
                | _ -> ());
                ignore (on_invoke callee args))
        | Node.Static ->
            step (fun fr ->
                match on_invoke callee (args_of args fr) with
                | Some r -> fr.rv.(d) <- r
                | None -> ())
        | Node.Virtual ->
            (* monomorphic inline cache: (class id, pre-resolved target),
               seeded from the receiver classes the interpreter observed at
               this call site (the invoke's frame state records the state
               *after* the call, so the site itself is at [fs_bci - 1]) *)
            let seed =
              match n.Node.fs with
              | None -> None
              | Some fs -> (
                  match
                    Profile.hot_receiver profile fs.Frame_state.fs_method
                      ~bci:(fs.Frame_state.fs_bci - 1)
                  with
                  | None -> None
                  | Some cls -> (
                      match Classfile.resolve_method cls callee.Classfile.mth_name with
                      | Some target -> Some (cls, target)
                      | None -> None))
            in
            (match seed with
            | Some (cls, _) when Trace.enabled () ->
                Trace.record
                  (Event.Ic_transition
                     {
                       meth;
                       callee = callee.Classfile.mth_name;
                       cls = cls.Classfile.cls_name;
                       kind = Event.Ic_seed;
                     })
            | _ -> ());
            let ic =
              ref (Option.map (fun (cls, tgt) -> (cls.Classfile.cls_id, tgt)) seed)
            in
            step (fun fr ->
                let args = args_of args fr in
                let recv = match args with r :: _ -> r | [] -> trap "missing receiver" in
                let target =
                  match (recv, !ic) with
                  | Vobj o, Some (cid, tgt) when o.o_cls.Classfile.cls_id = cid ->
                      Stats.incr stats Stats.ic_hits;
                      tgt
                  | _ ->
                      Stats.incr stats Stats.ic_misses;
                      let tgt = Interp.dispatch_target recv callee in
                      (match recv with
                      | Vobj o ->
                          ic := Some (o.o_cls.Classfile.cls_id, tgt);
                          if Trace.enabled () then
                            Trace.record
                              (Event.Ic_transition
                                 {
                                   meth;
                                   callee = callee.Classfile.mth_name;
                                   cls = o.o_cls.Classfile.cls_name;
                                   kind = Event.Ic_rebias;
                                 })
                      | _ -> ());
                      tgt
                in
                match on_invoke target args with
                | Some r -> fr.rv.(d) <- r
                | None -> ()))
    | Node.Instance_of (a, cls) ->
        let ra = read_v a in
        step (fun fr -> set_bool fr (Interp.value_instanceof (ra fr) cls))
    | Node.Has_class (a, cls) ->
        (* exact-class guard: no subclass walk, false for null and arrays *)
        let cid = cls.Classfile.cls_id in
        let ra = read_v a in
        step (fun fr ->
            set_bool fr (match ra fr with Vobj o -> o.o_cls.Classfile.cls_id = cid | _ -> false))
    | Node.Check_cast (a, cls) ->
        let cls_name = cls.Classfile.cls_name in
        let ra = read_v a in
        step (fun fr ->
            match ra fr with
            | Vnull -> fr.rv.(d) <- Vnull
            | x ->
                if Interp.value_instanceof x cls then fr.rv.(d) <- x
                else trap "cannot cast %s to %s" (string_of_value x) cls_name)
    | Node.Null_check a ->
        let ra = read_v a in
        step (fun fr -> match ra fr with Vnull -> trap "null dereference" | _ -> ())
    | Node.Print a ->
        let ra = read_v a in
        step (fun fr -> on_print (ra fr))
  in
  (* the (pred -> succ) control-transfer closure: the phi parallel move for
     that edge, resolved at compile time, then the jump. Int and Bool
     phis move within [iv], from a slot or a constant; Ref phis read
     through their input's reader, boxing Int and Bool inputs. *)
  let compile_edge ~pred ~succ : frame -> Value.value option =
    let sb = Graph.block g succ in
    match sb.Graph.phis with
    | [] -> fun fr -> bodies.(succ) fr
    | phis -> (
        let rec find i = function
          | [] -> None
          | p :: _ when p = pred -> Some i
          | _ :: rest -> find (i + 1) rest
        in
        match find 0 sb.Graph.preds with
        | None -> fun _ -> trap "phi resolution: B%d is not a predecessor of B%d" pred succ
        | Some idx -> (
            let input (p : Node.t) =
              match p.Node.op with Node.Phi ph -> ph.Node.inputs.(idx) | _ -> assert false
            in
            let ref_phis, int_phis =
              List.partition (fun (p : Node.t) -> kinds.(p.Node.id) = K_ref) phis
            in
            let int_src (p : Node.t) =
              match consts.(input p) with
              | Some (Vint k) -> Imm k
              | Some (Vbool b) -> Imm (Bool.to_int b)
              | _ -> Reg (slot (input p))
            in
            let idsts = Array.of_list (List.map (fun (p : Node.t) -> slot p.Node.id) int_phis) in
            let isrcs = Array.of_list (List.map int_src int_phis) in
            match (ref_phis, idsts, isrcs) with
            | [], [| d |], [| s |] ->
                fun fr ->
                  let iv = fr.iv in
                  iv.(d) <- int_value iv s;
                  bodies.(succ) fr
            | [], [| d0; d1 |], [| s0; s1 |] ->
                fun fr ->
                  let iv = fr.iv in
                  let x0 = int_value iv s0 and x1 = int_value iv s1 in
                  iv.(d0) <- x0;
                  iv.(d1) <- x1;
                  bodies.(succ) fr
            | _ ->
                let rdsts = Array.of_list (List.map (fun (p : Node.t) -> slot p.Node.id) ref_phis) in
                let rsrcs = Array.of_list (List.map (fun p -> read_v (input p)) ref_phis) in
                (* shared scratch is safe: the move makes no calls, and
                   each VM runs on one domain at a time *)
                let itmp = Array.make (Array.length idsts) 0 in
                let rtmp = Array.make (Array.length rdsts) Vnull in
                fun fr ->
                  let iv = fr.iv and rv = fr.rv in
                  fill rtmp rsrcs fr;
                  for i = 0 to Array.length isrcs - 1 do
                    itmp.(i) <- int_value iv isrcs.(i)
                  done;
                  for i = 0 to Array.length idsts - 1 do
                    iv.(idsts.(i)) <- itmp.(i)
                  done;
                  for i = 0 to Array.length rdsts - 1 do
                    rv.(rdsts.(i)) <- rtmp.(i)
                  done;
                  bodies.(succ) fr))
  in
  (* the typed compare an [If] evaluates in its terminator: its
     condition, when that is the block's last instruction with a step *)
  let fused_cmp (b : Graph.block) =
    match b.Graph.term with
    | Graph.If { cond; _ } -> (
        let last =
          Pea_support.Dyn_array.fold_left
            (fun acc (n : Node.t) ->
              match n.Node.op with Node.Const _ | Node.Param _ -> acc | _ -> Some n)
            None b.Graph.instrs
        in
        match last with
        | Some { Node.id; op = Node.Cmp (c, a, b); _ } when id = cond ->
            typed_cmp c (int_operand a) (int_operand b)
        | _ -> None)
    | _ -> None
  in
  let compile_term (b : Graph.block) fused : frame -> Value.value option =
    match b.Graph.term with
    | Graph.Return None -> fun _ -> None
    | Graph.Return (Some x) ->
        let rx = read_v x in
        fun fr -> Some (rx fr)
    | Graph.Deopt d -> fun fr -> raise (Ir_exec.Deoptimize (d, fun id -> read_v id fr))
    | Graph.Trap msg -> fun _ -> trap "%s" msg
    | Graph.Unreachable -> fun _ -> trap "reached an Unreachable terminator"
    | Graph.Goto t -> compile_edge ~pred:b.Graph.b_id ~succ:t
    | Graph.If { cond; tru; fls; _ } -> (
        let et = compile_edge ~pred:b.Graph.b_id ~succ:tru in
        let ef = compile_edge ~pred:b.Graph.b_id ~succ:fls in
        match (fused, consts.(cond), kinds.(cond)) with
        | Some t, _, _ -> cmp_branch (slot cond) t et ef
        | None, Some (Vbool k), _ -> if k then et else ef
        | None, None, K_bool ->
            let c = slot cond in
            fun fr -> if fr.iv.(c) <> 0 then et fr else ef fr
        | _ ->
            let rc = read_b cond in
            fun fr -> if rc fr then et fr else ef fr)
  in
  (* A block's segments, in order, as (compiled ops, cycles, steps): each
     impure instruction closes one, and the trailing one (possibly
     empty) takes the branch cycles of an [If]. The first segment is
     charged on block entry, every later one by a step at its start. *)
  let compile_block (b : Graph.block) =
    let fused = fused_cmp b in
    let term = compile_term b fused in
    let segments = ref [] and ops = ref 0 and cy = ref 0 and steps = ref [] in
    let close () =
      segments := (!ops, !cy, List.rev !steps) :: !segments;
      ops := 0;
      cy := 0;
      steps := []
    in
    Pea_support.Dyn_array.iter
      (fun (n : Node.t) ->
        incr ops;
        cy := !cy + cost n;
        (match (fused, b.Graph.term) with
        | Some _, Graph.If { cond; _ } when cond = n.Node.id -> ()
        | _ -> Option.iter (fun f -> steps := f :: !steps) (compile_instr n));
        if not (pure n) then close ())
      b.Graph.instrs;
    (match b.Graph.term with Graph.If _ -> cy := !cy + base | _ -> ());
    close ();
    match List.rev !segments with
    | [] -> assert false
    | (ops, cy, first) :: later ->
        let later =
          List.concat_map
            (fun (ops, cy, steps) ->
              if ops = 0 && cy = 0 then steps else (fun _ -> charge cells ops cy) :: steps)
            later
        in
        block_closure cells ~bci:block_bcis.(b.Graph.b_id) ~ops ~cy
          (Array.of_list (first @ later))
          term
  in
  let reachable = Graph.reachable g in
  Graph.iter_blocks
    (fun b -> if reachable.(b.Graph.b_id) then bodies.(b.Graph.b_id) <- compile_block b)
    g;
  let binder (p : Node.t) : frame -> Value.value -> unit =
    let s = slot p.Node.id in
    match kinds.(p.Node.id) with
    | K_ref -> fun fr v -> fr.rv.(s) <- v
    | K_int -> fun fr v -> fr.iv.(s) <- as_int v
    | K_bool -> fun fr v -> fr.iv.(s) <- Bool.to_int (as_bool v)
  in
  {
    n_int = !n_int;
    n_ref = !n_ref;
    binders = Array.of_list (List.map binder g.Graph.params);
    entry = bodies.(Graph.entry_id);
    pool = [];
    method_name = meth;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let pool_depth code = List.length code.pool

let run ?deopt (code : code) (args : Value.value list) : Value.value option =
  let fr =
    match code.pool with
    | [] -> { iv = Array.make code.n_int 0; rv = Array.make code.n_ref Vnull }
    | f :: rest ->
        code.pool <- rest;
        f
  in
  let binders = code.binders in
  let n_params = Array.length binders in
  let rec bind i args =
    if i < n_params then
      match args with
      | v :: vs ->
          binders.(i) fr v;
          bind (i + 1) vs
      | [] -> trap "missing argument %d for %s" i code.method_name
  in
  bind 0 args;
  match code.entry fr with
  | r ->
      code.pool <- fr :: code.pool;
      r
  | exception (Ir_exec.Deoptimize (d, lookup) as e) -> (
      match deopt with
      | Some handler ->
          (* [fr] stays live through the lookup closure until the handler
             returns (or raises through re-entrant interpretation); only
             then is it safe to put it back in the pool *)
          Fun.protect
            ~finally:(fun () -> code.pool <- fr :: code.pool)
            (fun () -> handler d lookup)
      | None ->
          (* no in-frame handler: the exception carries the [fr]-backed
             lookup out of this frame, so the frame must leak with it *)
          raise e)
  | exception e ->
      code.pool <- fr :: code.pool;
      raise e
