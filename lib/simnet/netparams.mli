(** Calibration constants for the simulated testbed.

    All constants model the paper's platform: dual Pentium II 450 MHz
    nodes, 33 MHz / 32-bit PCI, Myrinet LANai 4.3 NICs driven by BIP,
    Dolphin D310 SCI NICs driven by SISCI, Fast Ethernet, Linux 2.2.13.
    Values are chosen so that the *raw* interface micro-benchmarks land on
    the numbers the paper quotes (BIP: 5 us / 126 MB/s; SISCI PIO short
    latency allowing Madeleine's 3.9 us; SCI DMA: 35 MB/s; ...). See
    EXPERIMENTS.md for the full paper-vs-measured table. *)

(** {1 PCI bus} *)

val pci_capacity_mb_s : float
(** Raw 33 MHz x 32-bit capacity: 132 MB/s. *)

val pci_contention_factor : float
(** Degradation applied when the bus carries two or more concurrent
    streams of the same transaction class (full-duplex forwarding);
    calibrated from the 49.5 MB/s asymptote of Fig. 10. *)

val pci_mixed_contention_factor : float
(** Harsher degradation when CPU PIO and NIC DMA interleave on the bus
    (broken write-combining, arbitration turnaround); calibrated from
    Fig. 11's DMA-starves-PIO asymmetry. *)

val pci_weight_pio : float
(** Arbitration weight of CPU-initiated programmed-IO transactions. *)

val pci_weight_dma : float
(** Arbitration weight of NIC-initiated DMA transactions; twice the PIO
    weight per the Fig. 11 analysis. *)

val pci_pio_rate_cap_mb_s : float
(** Peak PIO write bandwidth through the PCI bridge (write-combining). *)

val pci_dma_rate_cap_mb_s : float
(** Peak burst DMA bandwidth of a single busmaster. *)

(** {1 Per-network link parameters} *)

type link = {
  wire_lat : Marcel.Time.span;  (** one-way propagation + switch latency *)
  wire_bw_mb_s : float;  (** link serialization bandwidth *)
  hw_mtu : int;  (** hardware packetization used to pipeline stages *)
}

val myrinet : link
val sci : link
val fast_ethernet : link

(** {1 BIP/Myrinet software constants} *)

val bip_send_overhead : Marcel.Time.span
val bip_recv_overhead : Marcel.Time.span
val bip_short_max : int
(** Threshold (bytes) between BIP short and long messages: 1024. *)

val bip_short_credits : int
(** Preallocated receive buffers per connection for short messages. *)

val bip_rendezvous_overhead : Marcel.Time.span
(** Extra handshake cost paid once per long message (receiver-ready ack). *)

val bip_copy_rate_mb_s : float
(** memcpy rate for staging short messages out of preallocated buffers. *)

(** {1 SISCI/SCI software constants} *)

val sisci_pio_overhead : Marcel.Time.span
(** Per-operation cost of a PIO store sequence + store barrier. *)

val sisci_poll_overhead : Marcel.Time.span
(** Receiver cost to notice a completed segment write (flag polling). *)

val sisci_dma_setup : Marcel.Time.span
(** Cost to post one DMA descriptor. *)

val sisci_dma_rate_cap_mb_s : float
(** The notoriously poor D310 DMA engine: 35 MB/s. *)

(** {1 TCP / Fast Ethernet software constants} *)

val tcp_send_overhead : Marcel.Time.span
val tcp_recv_overhead : Marcel.Time.span
val tcp_rate_cap_mb_s : float

(** {1 VIA software constants} *)

val via_doorbell_overhead : Marcel.Time.span
val via_completion_overhead : Marcel.Time.span
val via_descriptor_max : int
(** Maximum buffer size a single VIA descriptor may carry. *)

(** {1 SBP (static-buffer kernel protocol) constants} *)

val sbp_trap_overhead : Marcel.Time.span
val sbp_buffer_size : int

(** {1 Generic host constants} *)

val memcpy_rate_mb_s : float
(** Plain main-memory copy rate of the PII-450 (used by static-buffer
    BMMs and by baseline MPI devices that stage through copies). *)

val interrupt_latency : Marcel.Time.span
(** Kernel interrupt + thread-wakeup cost, vs sub-microsecond polling
    detection: the trade-off behind adaptive network interaction. *)

(** {1 Buffer registration (pin-down) for zero-copy RDMA} *)

val page_size : int
(** Host page size: registration cost is charged per page pinned. *)

val reg_base : Marcel.Time.span
(** Fixed cost of registering a buffer (syscall entry, translation
    table setup), independent of its size. *)

val reg_per_page : Marcel.Time.span
(** Marginal cost of pinning and translating one page. *)

val dereg_base : Marcel.Time.span
val dereg_per_page : Marcel.Time.span
(** Deregistration analogues — cheaper: unpinning rebuilds nothing. *)

val sisci_rdma_rate_cap_mb_s : float
(** Source-side PCI ceiling of the busmaster engine reading pinned user
    pages in long aligned bursts — approaches the raw DMA ceiling
    instead of the D310 staging engine's {!sisci_dma_rate_cap_mb_s}. *)
