(** The C2 architectural style (the CRASH system's style).

    "A C2 architecture is composed of components and connectors that are
    organized into layers. Components in a layer are only aware of
    components in the layers above and have no knowledge about
    components in layers below. Components communicate ... using two
    types of asynchronous event-based messages, requests and
    notifications. Request messages travel up the architecture while
    notification messages move down" (paper §4.2).

    Structural encoding: every interface of a C2 element carries a
    [("side", "top" | "bottom")] tag. Rules:
    - [c2.no-direct]: components never link directly to components —
      all communication is mediated by connectors;
    - [c2.side]: every interface on a linked element declares a side;
    - [c2.topology]: a link joins the *top* side of the lower element to
      the *bottom* side of the element above it — i.e. one endpoint is a
      "top" and the other a "bottom". *)

val rules : Rule.t list
