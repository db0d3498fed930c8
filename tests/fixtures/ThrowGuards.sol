pragma solidity ^0.4.24;

contract ThrowGuards {
    address owner;
    uint paid;

    function braced(address to) public {
        if (!to.send(1)) {
            throw;
        }
        paid += 1;
    }

    function spaced(address to) public {
        if (!to.send(2)) {
            paid += 2;
            throw ;
        }
    }

    function elseArm(address to) public {
        if (to.send(3)) {
            paid += 3;
        } else {
            throw
            ;
        }
    }

    function reverted(address to) public {
        if (!to.send(4)) {
            revert();
        }
    }

    function commented(address to) public {
        if (!to.send(5)) {
            throw /* not bare */ ;
        }
        require(to.send(6));
    }
}
