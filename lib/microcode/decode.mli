(** The disassembler: microinstruction words back to semantic structures.

    Decoding is the inverse of {!Encode.encode} up to
    {!Encode.normalize}; the round trip is enforced by property tests and
    gives confidence that the generated machine code means what the diagram
    said.  A field holding a code the encoder never writes is refused
    rather than read as something else. *)

(** Disassemble a word back to (normalised) semantic structures; fails on
    a bad magic number or on any undefined code (opcode, operand source,
    constant port, bypass, switch source, shift/delay mode).  Every field
    is read through the layout's records. *)
val decode :
  Fields.t ->
  Word.t -> (Nsc_diagram.Semantic.t, string) result
