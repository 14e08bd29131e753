(** Imperative binary min-heap, used by the Huffman tree builder. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the minimum element.
    @raise Not_found if the heap is empty. *)

val peek : 'a t -> 'a
(** Returns the minimum element without removing it.
    @raise Not_found if the heap is empty. *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t

val to_sorted_list : 'a t -> 'a list
(** Drains the heap, returning elements in ascending order. *)
