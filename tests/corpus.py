"""Fixture corpora: small multi-service Java source trees with version histories.

Two corpora are defined as layered file maps (version N applies its
overrides on top of version N-1; a None value deletes the file):

* HISTORY: 3 services, 6 versions.  Exercises every change kind and every
  built-in rule.  Expected per-version counts, derived by hand:

    version  IC  UEM  SMM  RMM   event
    v0        0    4    0    0   baseline (4 endpoints nobody calls)
    v1        0    4    1    0   order service method mutates its return object
    v2        1    4    0    0   station controller loses the called endpoint
    v3        1    4    0    1   order repository loses a query annotation
    v4        0    5    0    0   endpoint restored; user controller adds one
    v5        0    5    0    0   service added; overlapping entity deleted

* SUMMARY: 2 services, 4 versions, exactly one injected anomaly for IC,
  UEM and SMM and none for RMM (unique totals 1/1/1/0 over 4 commits).
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

POM = """<?xml version="1.0" encoding="UTF-8"?>
<project>
  <modelVersion>4.0.0</modelVersion>
  <groupId>fixture</groupId>
  <artifactId>{name}</artifactId>
  <version>1.0.0</version>
</project>
"""

# ---------------------------------------------------------------------------
# HISTORY corpus, version 0
# ---------------------------------------------------------------------------

ORDER_CONTROLLER = """package order;

import org.springframework.web.bind.annotation.*;

@RestController
@RequestMapping("/api/v1/orders")
public class OrderController {

    @Autowired
    private OrderService orderService;

    @GetMapping("/{id}")
    public Order getOrder(@PathVariable String id) {
        return orderService.getOrder(id);
    }

    @PostMapping("")
    public Order createOrder(@RequestBody Order order) {
        return orderService.createOrder(order);
    }
}
"""

ORDER_SERVICE_V0 = """package order;

import org.springframework.stereotype.Service;

@Service
public class OrderService {

    @Autowired
    private OrderRepository orderRepository;

    @Autowired
    private RestTemplate restTemplate;

    public Order getOrder(String id) {
        Order order = orderRepository.findByOrderId(id);
        Station station = restTemplate.getForObject("http://ts-station/api/v1/stations/" + id, Station.class);
        order.setStationName(station.getName());
        return order;
    }

    public Order createOrder(Order order) {
        return orderRepository.save(order);
    }
}
"""

# v1: two additional calls on the return object of getOrder
ORDER_SERVICE_V1 = ORDER_SERVICE_V0.replace(
    "        order.setStationName(station.getName());\n",
    "        order.setStationName(station.getName());\n"
    "        order.setPrice(order.getPrice() * 2.0);\n",
)

ORDER_REPOSITORY_V0 = """package order;

import org.springframework.stereotype.Repository;

@Repository
public interface OrderRepository {

    @Query("SELECT o FROM Order o WHERE o.id = ?1")
    Order findByOrderId(String id);

    Order save(Order order);
}
"""

# v3: the custom query annotation is removed in favor of a default lookup
ORDER_REPOSITORY_V3 = ORDER_REPOSITORY_V0.replace(
    "    @Query(\"SELECT o FROM Order o WHERE o.id = ?1\")\n", ""
)

ORDER_ENTITY = """package order;

import javax.persistence.Entity;

@Entity
public class Order {
    private String id;
    private String stationId;
    private String userId;
    private double price;
    private String stationName;

    public String getId() { return id; }
    public double getPrice() { return price; }
    public void setPrice(double price) { this.price = price; }
    public void setStationName(String stationName) { this.stationName = stationName; }
}
"""

PAYMENT_ENTITY = """package order;

import javax.persistence.Entity;

@Entity
public class Payment {
    private String id;
    private String money;
    private String userId;
    private String orderId;
}
"""

NOTIFICATION_SERVICE_V5 = """package order;

import org.springframework.stereotype.Service;

@Service
public class NotificationService {

    public void notifyTeam(String message) {
        String trimmed = message.trim();
    }
}
"""

STATION_CONTROLLER_V0 = """package station;

import org.springframework.web.bind.annotation.*;

@RestController
@RequestMapping("/api/v1/stations")
public class StationController {

    @Autowired
    private StationService stationService;

    @GetMapping("/{id}")
    public Station getStation(@PathVariable String id) {
        return stationService.getStation(id);
    }

    @GetMapping("")
    public List<Station> listStations() {
        return stationService.listStations();
    }
}
"""

# v2: the endpoint other services depend on is dropped
STATION_CONTROLLER_V2 = """package station;

import org.springframework.web.bind.annotation.*;

@RestController
@RequestMapping("/api/v1/stations")
public class StationController {

    @Autowired
    private StationService stationService;

    @GetMapping("")
    public List<Station> listStations() {
        return stationService.listStations();
    }
}
"""

STATION_SERVICE = """package station;

import org.springframework.stereotype.Service;

@Service
public class StationService {

    @Autowired
    private StationRepository stationRepository;

    public Station getStation(String id) {
        return stationRepository.findById(id);
    }

    public List<Station> listStations() {
        return stationRepository.findAll();
    }
}
"""

STATION_REPOSITORY = """package station;

import org.springframework.stereotype.Repository;

@Repository
public interface StationRepository {
    Station findById(String id);
    List<Station> findAll();
}
"""

STATION_ENTITY = """package station;

import javax.persistence.Entity;

@Entity
public class Station {
    private String id;
    private String name;
    private int capacity;
    private String city;
}
"""

USER_CONTROLLER_V0 = """package user;

import org.springframework.web.bind.annotation.*;

@RestController
@RequestMapping("/api/v1/users")
public class UserController {

    @Autowired
    private UserService userService;

    @GetMapping("/{id}")
    public User getUser(@PathVariable String id) {
        return userService.getUser(id);
    }

    @RequestMapping(value = "/{id}/orders", method = RequestMethod.GET)
    public Order getUserOrder(@PathVariable String id) {
        return userService.getUserOrder(id);
    }
}
"""

# v4: a creation endpoint appears (nobody calls it yet)
USER_CONTROLLER_V4 = USER_CONTROLLER_V0.replace(
    "    @RequestMapping(value = \"/{id}/orders\", method = RequestMethod.GET)",
    "    @PostMapping(\"\")\n"
    "    public User createUser(@RequestBody User user) {\n"
    "        return userService.createUser(user);\n"
    "    }\n"
    "\n"
    "    @RequestMapping(value = \"/{id}/orders\", method = RequestMethod.GET)",
)

USER_SERVICE_V0 = """package user;

import org.springframework.stereotype.Service;

@Service
public class UserService {

    @Autowired
    private UserRepository userRepository;

    @Autowired
    private RestTemplate restTemplate;

    public User getUser(String id) {
        return userRepository.findUser(id);
    }

    public Order getUserOrder(String id) {
        ResponseEntity<Order> resp = restTemplate.exchange("http://ts-order/api/v1/orders/" + id, HttpMethod.GET, null, Order.class);
        return resp.getBody();
    }
}
"""

USER_SERVICE_V4 = USER_SERVICE_V0.replace(
    "    public Order getUserOrder(String id) {",
    "    public User createUser(User user) {\n"
    "        return userRepository.saveUser(user);\n"
    "    }\n"
    "\n"
    "    public Order getUserOrder(String id) {",
)

USER_REPOSITORY = """package user;

import org.springframework.stereotype.Repository;

@Repository
public interface UserRepository {
    User findUser(String id);
    User saveUser(User user);
}
"""

USER_ENTITY = """package user;

import javax.persistence.Entity;

@Entity
public class User {
    private String id;
    private String name;
    private String email;
}
"""

ACCOUNT_ENTITY = """package user;

import javax.persistence.Entity;

@Entity
public class Account {
    private String id;
    private String money;
    private String userId;
}
"""

HISTORY_BASE: dict[str, str] = {
    "ts-order/pom.xml": POM.format(name="ts-order"),
    "ts-order/src/main/java/order/OrderController.java": ORDER_CONTROLLER,
    "ts-order/src/main/java/order/OrderService.java": ORDER_SERVICE_V0,
    "ts-order/src/main/java/order/OrderRepository.java": ORDER_REPOSITORY_V0,
    "ts-order/src/main/java/order/Order.java": ORDER_ENTITY,
    "ts-order/src/main/java/order/Payment.java": PAYMENT_ENTITY,
    "ts-station/pom.xml": POM.format(name="ts-station"),
    "ts-station/src/main/java/station/StationController.java": STATION_CONTROLLER_V0,
    "ts-station/src/main/java/station/StationService.java": STATION_SERVICE,
    "ts-station/src/main/java/station/StationRepository.java": STATION_REPOSITORY,
    "ts-station/src/main/java/station/Station.java": STATION_ENTITY,
    "ts-user/pom.xml": POM.format(name="ts-user"),
    "ts-user/src/main/java/user/UserController.java": USER_CONTROLLER_V0,
    "ts-user/src/main/java/user/UserService.java": USER_SERVICE_V0,
    "ts-user/src/main/java/user/UserRepository.java": USER_REPOSITORY,
    "ts-user/src/main/java/user/User.java": USER_ENTITY,
    "ts-user/src/main/java/user/Account.java": ACCOUNT_ENTITY,
}

# Per-version overrides, applied cumulatively; None deletes the file.
HISTORY_STEPS: list[dict[str, str | None]] = [
    {},
    {"ts-order/src/main/java/order/OrderService.java": ORDER_SERVICE_V1},
    {"ts-station/src/main/java/station/StationController.java": STATION_CONTROLLER_V2},
    {"ts-order/src/main/java/order/OrderRepository.java": ORDER_REPOSITORY_V3},
    {
        "ts-station/src/main/java/station/StationController.java": STATION_CONTROLLER_V0,
        "ts-user/src/main/java/user/UserController.java": USER_CONTROLLER_V4,
        "ts-user/src/main/java/user/UserService.java": USER_SERVICE_V4,
    },
    {
        "ts-order/src/main/java/order/NotificationService.java": NOTIFICATION_SERVICE_V5,
        "ts-user/src/main/java/user/Account.java": None,
    },
]

HISTORY_EXPECTED_SERIES = {
    "IC": [0, 0, 1, 1, 0, 0],
    "UEM": [4, 4, 4, 4, 5, 5],
    "SMM": [0, 1, 0, 0, 0, 0],
    "RMM": [0, 0, 0, 1, 0, 0],
}

HISTORY_EXPECTED_UNIQUE = {"IC": 1, "UEM": 5, "SMM": 1, "RMM": 1}


# ---------------------------------------------------------------------------
# SUMMARY corpus (2 services, 4 versions, one anomaly per rule except RMM)
# ---------------------------------------------------------------------------

ALPHA_CONTROLLER = """package alpha;

import org.springframework.web.bind.annotation.*;

@RestController
@RequestMapping("/alpha")
public class AlphaController {

    @Autowired
    private AlphaService alphaService;

    @GetMapping("/x")
    public String getX() {
        return alphaService.combined();
    }
}
"""

ALPHA_SERVICE_V0 = """package alpha;

import org.springframework.stereotype.Service;

@Service
public class AlphaService {

    @Autowired
    private RestTemplate restTemplate;

    public String combined() {
        String beta = restTemplate.getForObject("http://svc-beta/beta/y", String.class);
        return beta;
    }
}
"""

# v2: a call appears that targets an endpoint nobody serves
ALPHA_SERVICE_V2 = ALPHA_SERVICE_V0.replace(
    "    public String combined() {",
    "    public String fetchGhost() {\n"
    "        return restTemplate.getForObject(\"http://svc-beta/beta/ghost\", String.class);\n"
    "    }\n"
    "\n"
    "    public String combined() {",
)

BETA_CONTROLLER_V0 = """package beta;

import org.springframework.web.bind.annotation.*;

@RestController
@RequestMapping("/beta")
public class BetaController {

    @Autowired
    private BetaService betaService;

    @GetMapping("/y")
    public Thing getY() {
        return betaService.getThing();
    }
}
"""

# v1: an endpoint appears that no middleware service calls
BETA_CONTROLLER_V1 = BETA_CONTROLLER_V0.replace(
    "    @GetMapping(\"/y\")",
    "    @GetMapping(\"/z\")\n"
    "    public Thing getZ() {\n"
    "        return betaService.getThing();\n"
    "    }\n"
    "\n"
    "    @GetMapping(\"/y\")",
)

BETA_SERVICE_V0 = """package beta;

import org.springframework.stereotype.Service;

@Service
public class BetaService {

    @Autowired
    private RestTemplate restTemplate;

    public Thing getThing() {
        Thing t = new Thing();
        t.setName("beta");
        String alpha = restTemplate.getForObject("http://svc-alpha/alpha/x", String.class);
        return t;
    }
}
"""

# v3: the returned object is additionally mutated before leaving the method
BETA_SERVICE_V3 = BETA_SERVICE_V0.replace(
    "        t.setName(\"beta\");\n",
    "        t.setName(\"beta\");\n        t.setFlag(true);\n",
)

THING_PLAIN = """package beta;

public class Thing {
    private String name;
    private boolean flag;

    public void setName(String name) { this.name = name; }
    public void setFlag(boolean flag) { this.flag = flag; }
}
"""

SUMMARY_BASE: dict[str, str] = {
    "svc-alpha/pom.xml": POM.format(name="svc-alpha"),
    "svc-alpha/src/main/java/alpha/AlphaController.java": ALPHA_CONTROLLER,
    "svc-alpha/src/main/java/alpha/AlphaService.java": ALPHA_SERVICE_V0,
    "svc-beta/pom.xml": POM.format(name="svc-beta"),
    "svc-beta/src/main/java/beta/BetaController.java": BETA_CONTROLLER_V0,
    "svc-beta/src/main/java/beta/BetaService.java": BETA_SERVICE_V0,
    "svc-beta/src/main/java/beta/Thing.java": THING_PLAIN,
}

SUMMARY_STEPS: list[dict[str, str | None]] = [
    {},
    {"svc-beta/src/main/java/beta/BetaController.java": BETA_CONTROLLER_V1},
    {"svc-alpha/src/main/java/alpha/AlphaService.java": ALPHA_SERVICE_V2},
    {"svc-beta/src/main/java/beta/BetaService.java": BETA_SERVICE_V3},
]

SUMMARY_EXPECTED_SERIES = {
    "IC": [0, 0, 1, 1],
    "UEM": [0, 1, 1, 1],
    "SMM": [0, 0, 0, 1],
    "RMM": [0, 0, 0, 0],
}

SUMMARY_EXPECTED_UNIQUE = {"IC": 1, "UEM": 1, "SMM": 1, "RMM": 0}


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------


def materialize_history(
    base: dict[str, str], steps: list[dict[str, str | None]], root: Path
) -> list[Path]:
    """Write one directory tree per version; returns them oldest-first."""
    versions = []
    current = dict(base)
    for i, overrides in enumerate(steps):
        for rel, content in overrides.items():
            if content is None:
                current.pop(rel, None)
            else:
                current[rel] = content
        version_root = root / f"v{i}"
        for rel, content in current.items():
            path = version_root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
        versions.append(version_root)
    return versions


def write_history_corpus(root: Path) -> list[Path]:
    return materialize_history(HISTORY_BASE, HISTORY_STEPS, root)


def write_summary_corpus(root: Path) -> list[Path]:
    return materialize_history(SUMMARY_BASE, SUMMARY_STEPS, root)


# ---------------------------------------------------------------------------
# Git histories
# ---------------------------------------------------------------------------

_EXTRA_SERVICE = {
    "ts-extra/pom.xml": POM.format(name="ts-extra"),
    "ts-extra/src/main/java/alpha/AlphaController.java": ALPHA_CONTROLLER,
    "ts-extra/src/main/java/alpha/AlphaService.java": ALPHA_SERVICE_V0,
}

# HISTORY followed by the revision shapes that decide what a git replay may
# skip rescanning: a service (with its build descriptor) added and removed
# again, a revision touching no source file, a two-service edit and more
# deletions.  HISTORY itself already edits two services at once (v4) and
# deletes a source file (v5).
HISTORY_GIT_STEPS: list[dict[str, str | None]] = HISTORY_STEPS + [
    dict(_EXTRA_SERVICE),
    {"ts-order/README.md": "Order service.\n", "docs/notes.txt": "notes\n"},
    {
        "ts-order/src/main/java/order/OrderService.java": ORDER_SERVICE_V0,
        "ts-extra/src/main/java/alpha/AlphaService.java": ALPHA_SERVICE_V2,
    },
    dict.fromkeys(_EXTRA_SERVICE),
    {
        "ts-order/src/main/java/order/Payment.java": None,
        "docs/notes.txt": None,
    },
]

GIT_IDENTITY = (
    "-c", "user.name=fixture",
    "-c", "user.email=fixture@example.invalid",
    "-c", "commit.gpgsign=false",
)


def git(repo: Path, *args: str, input: str | None = None) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), *GIT_IDENTITY, *args],
        input=input,
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def commit_versions(repo: Path, version_roots: list[Path]) -> list[str]:
    """Commit each version tree in turn to a new repository; revisions oldest-first."""
    repo.mkdir(parents=True)
    git(repo, "init", "--quiet")
    for i, version_root in enumerate(version_roots):
        for child in repo.iterdir():
            if child.name != ".git":
                shutil.rmtree(child) if child.is_dir() else child.unlink()
        shutil.copytree(version_root, repo, dirs_exist_ok=True)
        # copytree keeps the source files' modification times, so git's stat
        # check could take a same-size edit as unchanged; an empty index makes
        # ``add`` hash every file.
        git(repo, "read-tree", "--empty")
        git(repo, "add", "-A")
        git(repo, "commit", "--quiet", "--allow-empty", "-m", f"step {i}")
    return git(repo, "rev-list", "--reverse", "HEAD").split()
